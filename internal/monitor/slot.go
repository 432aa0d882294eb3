package monitor

import (
	"errors"

	"dragster/internal/streamsim"
)

// Backpressure detection and the Eq. 8 division.
const (
	// backlogSeconds flags backpressure when the end-of-slot backlog
	// exceeds this many seconds of the operator's input rate.
	backlogSeconds = 2
	// utilSaturation flags backpressure at or above this mean CPU
	// utilization.
	utilSaturation = 0.95
	// minUtil floors the utilization used in the Eq. 8 division so a
	// near-idle observation does not produce an absurd capacity estimate.
	minUtil = 0.05
)

// SlotReport assembles the snapshot of a slot of `seconds` ticks from
// the engine's totals over exactly those ticks, with every operator's
// Eq. 8 capacity sample and backpressure flag. names, running and
// cpuMilli are per dense operator index; dropped is the engine's
// per-slot drop count and cost the cluster's cumulative dollars.
func SlotReport(slot, seconds int, t *streamsim.Totals, names []string, running, cpuMilli []int, dropped, cost float64) (*Snapshot, error) {
	if seconds <= 0 {
		return nil, errors.New("monitor: slot must last at least one second")
	}
	if t.Active+t.Paused != seconds {
		return nil, errors.New("monitor: totals do not cover the slot's ticks")
	}
	nOps := len(t.Ops)
	if len(names) != nOps || len(running) != nOps || len(cpuMilli) != nOps {
		return nil, errors.New("monitor: report metadata length mismatch")
	}
	secs := float64(seconds)
	snap := &Snapshot{
		Slot:            slot,
		PausedSeconds:   t.Paused,
		Throughput:      t.Sink / secs,
		ProcessedTuples: t.Sink,
		DroppedTuples:   dropped,
		CostSoFar:       cost,
		AvgLatencySec:   t.Latency / secs,
		Operators:       make([]OperatorMetrics, nOps),
		SourceRates:     make([]float64, len(t.Rates)),
	}
	for i, s := range t.Rates {
		snap.SourceRates[i] = s / secs
	}
	for i := range snap.Operators {
		om := &snap.Operators[i]
		om.Name = names[i]
		om.Tasks = running[i]
		om.CPUMilli = cpuMilli[i]
		o := &t.Ops[i]
		om.InRate = o.Arrived / secs
		om.OutRate = o.Emitted / secs
		om.ConsumedRate = o.Consumed / secs
		if t.Active > 0 {
			om.Util = o.Util / float64(t.Active)
		}
		om.Backlog = o.Backlog
		om.CapacityObs = om.OutRate / max(om.Util, minUtil)
		om.Backpressured = om.Util >= utilSaturation ||
			(om.InRate > 0 && om.Backlog > backlogSeconds*om.InRate)
	}
	return snap, nil
}
