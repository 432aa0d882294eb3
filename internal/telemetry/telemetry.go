// Package telemetry defines the per-slot metrics surface produced by the
// stream-engine substrate (a Flink session, or its Storm preset) and
// consumed by the Job Monitor, plus the accumulator that builds a slot
// report from raw engine ticks.
package telemetry

import (
	"errors"

	"dragster/internal/streamsim"
)

// VertexStats is the per-operator view of one decision slot.
type VertexStats struct {
	Name         string
	RunningTasks int
	CPUMilli     int     // per-pod CPU template
	InRate       float64 // tuples/s arriving, slot average
	OutRate      float64 // tuples/s emitted, slot average
	ConsumedRate float64 // tuples/s drained from buffers
	Util         float64 // mean CPU utilization over active ticks
	Backlog      float64 // buffered tuples at slot end
}

// SlotReport summarizes one decision slot of job execution.
type SlotReport struct {
	Slot            int
	PausedSeconds   int
	Throughput      float64 // mean sink tuples/s
	ProcessedTuples float64 // tuples absorbed this slot
	DroppedTuples   float64
	SourceRates     []float64 // mean offered tuples/s per source
	Vertices        []VertexStats
	CostSoFar       float64 // dollars accrued by the cluster
	// AvgLatencySec is the Little's-law end-to-end latency estimate,
	// averaged over the slot's ticks.
	AvgLatencySec float64
}

// SlotAccumulator folds engine ticks into a SlotReport. One accumulator
// per slot; the substrate's slot loop drives it.
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
	lastOps []streamsim.OpTick
}

// NewSlotAccumulator sizes an accumulator for a slot of `seconds` ticks.
func NewSlotAccumulator(slot, nOps, nSources, seconds int) (*SlotAccumulator, error) {
	if seconds <= 0 {
		return nil, errors.New("telemetry: slot must last at least one second")
	}
	if nOps < 0 || nSources < 0 {
		return nil, errors.New("telemetry: negative operator or source count")
	}
	return &SlotAccumulator{
		slot:    slot,
		seconds: seconds,
		nOps:    nOps,
		inSum:   make([]float64, nOps),
		outSum:  make([]float64, nOps),
		consSum: make([]float64, nOps),
		utilSum: make([]float64, nOps),
		rateSum: make([]float64, nSources),
	}, nil
}

// Tick folds in one engine tick at the given offered rates.
func (a *SlotAccumulator) Tick(rates []float64, st streamsim.TickStats) error {
	if len(st.Ops) != a.nOps {
		return errors.New("telemetry: tick operator count mismatch")
	}
	if len(rates) != len(a.rateSum) {
		return errors.New("telemetry: tick rate count mismatch")
	}
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
	// st.Ops aliases the engine's per-tick scratch buffer; copy it, since
	// Finish reads lastOps after further ticks have overwritten it.
	a.lastOps = append(a.lastOps[:0], st.Ops...)
	return nil
}

// Finish assembles the slot report. names, running and cpuMilli are per
// dense operator index; dropped is the engine's per-slot drop count and
// cost the cluster's cumulative dollars.
func (a *SlotAccumulator) Finish(names []string, running, cpuMilli []int, dropped, cost float64) (*SlotReport, error) {
	if a.ticks != a.seconds {
		return nil, errors.New("telemetry: slot finished before all ticks ran")
	}
	if len(names) != a.nOps || len(running) != a.nOps || len(cpuMilli) != a.nOps {
		return nil, errors.New("telemetry: finish metadata length mismatch")
	}
	rep := &SlotReport{
		Slot:            a.slot,
		PausedSeconds:   a.paused,
		Throughput:      a.sinkSum / float64(a.seconds),
		ProcessedTuples: a.sinkSum,
		DroppedTuples:   dropped,
		CostSoFar:       cost,
		AvgLatencySec:   a.latSum / float64(a.seconds),
		Vertices:        make([]VertexStats, a.nOps),
		SourceRates:     make([]float64, len(a.rateSum)),
	}
	for i, s := range a.rateSum {
		rep.SourceRates[i] = s / float64(a.seconds)
	}
	for i := 0; i < a.nOps; i++ {
		v := &rep.Vertices[i]
		v.Name = names[i]
		v.RunningTasks = running[i]
		v.CPUMilli = cpuMilli[i]
		v.InRate = a.inSum[i] / float64(a.seconds)
		v.OutRate = a.outSum[i] / float64(a.seconds)
		v.ConsumedRate = a.consSum[i] / float64(a.seconds)
		if a.active > 0 {
			v.Util = a.utilSum[i] / float64(a.active)
		}
		if a.lastOps != nil {
			v.Backlog = a.lastOps[i].Buffered
		}
	}
	return rep, nil
}
