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

// SlotAccumulator folds engine ticks into a Snapshot. The substrate's
// slot loop drives it and reuses it slot after slot through Reset.
type SlotAccumulator struct {
	slot    int
	seconds int

	nOps    int
	ticks   int
	active  int
	paused  int
	sinkSum float64
	inSum   []float64
	outSum  []float64
	consSum []float64
	utilSum []float64
	rateSum []float64
	latSum  float64
	lastOps []streamsim.OpTick // the last tick's stats, aliased (see Tick)
}

// NewSlotAccumulator sizes an accumulator for a slot of `seconds` ticks.
func NewSlotAccumulator(slot, nOps, nSources, seconds int) (*SlotAccumulator, error) {
	if nOps < 0 || nSources < 0 {
		return nil, errors.New("monitor: negative operator or source count")
	}
	a := &SlotAccumulator{
		nOps:    nOps,
		inSum:   make([]float64, nOps),
		outSum:  make([]float64, nOps),
		consSum: make([]float64, nOps),
		utilSum: make([]float64, nOps),
		rateSum: make([]float64, nSources),
	}
	if err := a.Reset(slot, seconds); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset empties the accumulator for a slot of `seconds` ticks, keeping
// its operator and source counts and its buffers.
func (a *SlotAccumulator) Reset(slot, seconds int) error {
	if seconds <= 0 {
		return errors.New("monitor: slot must last at least one second")
	}
	a.slot, a.seconds = slot, seconds
	a.ticks, a.active, a.paused = 0, 0, 0
	a.sinkSum, a.latSum = 0, 0
	clear(a.inSum)
	clear(a.outSum)
	clear(a.consSum)
	clear(a.utilSum)
	clear(a.rateSum)
	a.lastOps = nil
	return nil
}

// Tick folds in one engine tick at the given offered rates. It checks no
// shapes: rates must hold the accumulator's source count and st.Ops its
// operator count, which the substrate establishes once per slot (an
// engine that accepted the slot's task vector reports that many
// operators every tick, and it rejects a rate vector of another length).
//
//lint:hotpath
func (a *SlotAccumulator) Tick(rates []float64, st streamsim.TickStats) {
	a.ticks++
	for i, r := range rates {
		a.rateSum[i] += r
	}
	a.sinkSum += st.SinkThroughput
	a.latSum += st.LatencySec
	if st.Paused {
		a.paused++
	} else {
		a.active++
		for i := range st.Ops {
			a.utilSum[i] += st.Ops[i].Util
		}
	}
	for i := range st.Ops {
		a.inSum[i] += st.Ops[i].Arrived
		a.outSum[i] += st.Ops[i].Emitted
		a.consSum[i] += st.Ops[i].Consumed
	}
	// st.Ops aliases the engine's per-tick scratch buffer, which the next
	// tick overwrites. Finish reads only the last tick's Buffered from it,
	// and the substrate calls Finish before the engine ticks again, so the
	// alias still holds that tick then: no copy per tick.
	a.lastOps = st.Ops
}

// Finish assembles the slot's snapshot, with every operator's Eq. 8
// capacity sample and backpressure flag. names, running and cpuMilli are
// per dense operator index; dropped is the engine's per-slot drop count
// and cost the cluster's cumulative dollars.
func (a *SlotAccumulator) Finish(names []string, running, cpuMilli []int, dropped, cost float64) (*Snapshot, error) {
	if a.ticks != a.seconds {
		return nil, errors.New("monitor: slot finished before all ticks ran")
	}
	if len(names) != a.nOps || len(running) != a.nOps || len(cpuMilli) != a.nOps {
		return nil, errors.New("monitor: finish metadata length mismatch")
	}
	snap := &Snapshot{
		Slot:            a.slot,
		PausedSeconds:   a.paused,
		Throughput:      a.sinkSum / float64(a.seconds),
		ProcessedTuples: a.sinkSum,
		DroppedTuples:   dropped,
		CostSoFar:       cost,
		AvgLatencySec:   a.latSum / float64(a.seconds),
		Operators:       make([]OperatorMetrics, a.nOps),
		SourceRates:     make([]float64, len(a.rateSum)),
	}
	for i, s := range a.rateSum {
		snap.SourceRates[i] = s / float64(a.seconds)
	}
	for i := range snap.Operators {
		om := &snap.Operators[i]
		om.Name = names[i]
		om.Tasks = running[i]
		om.CPUMilli = cpuMilli[i]
		om.InRate = a.inSum[i] / float64(a.seconds)
		om.OutRate = a.outSum[i] / float64(a.seconds)
		om.ConsumedRate = a.consSum[i] / float64(a.seconds)
		if a.active > 0 {
			om.Util = a.utilSum[i] / float64(a.active)
		}
		if a.lastOps != nil {
			om.Backlog = a.lastOps[i].Buffered
		}
		om.CapacityObs = om.OutRate / max(om.Util, minUtil)
		om.Backpressured = om.Util >= utilSaturation ||
			(om.InRate > 0 && om.Backlog > backlogSeconds*om.InRate)
	}
	return snap, nil
}
