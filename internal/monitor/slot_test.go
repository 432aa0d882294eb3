package monitor

import (
	"math"
	"reflect"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/streamsim"
)

func tick(sink float64, paused bool, ops ...streamsim.OpTick) streamsim.TickStats {
	return streamsim.TickStats{SinkThroughput: sink, Paused: paused, Ops: ops}
}

func TestNewSlotAccumulatorValidation(t *testing.T) {
	if _, err := NewSlotAccumulator(0, 1, 1, 0); err == nil {
		t.Error("zero seconds accepted")
	}
	if _, err := NewSlotAccumulator(0, -1, 1, 5); err == nil {
		t.Error("negative ops accepted")
	}
}

func TestAccumulatorAverages(t *testing.T) {
	acc, err := NewSlotAccumulator(3, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ticks: one paused, three active.
	ticks := []streamsim.TickStats{
		tick(100, false, streamsim.OpTick{Arrived: 50, Emitted: 100, Consumed: 50, Util: 0.5, Buffered: 0}),
		tick(0, true, streamsim.OpTick{Buffered: 30}),
		tick(200, false, streamsim.OpTick{Arrived: 50, Emitted: 200, Consumed: 100, Util: 0.9, Buffered: 10}),
		tick(100, false, streamsim.OpTick{Arrived: 50, Emitted: 100, Consumed: 50, Util: 0.7, Buffered: 5}),
	}
	ticks[2].LatencySec = 2
	for _, st := range ticks {
		acc.Tick([]float64{60}, st)
	}
	rep, err := acc.Finish([]string{"op"}, []int{3}, []int{1000}, 7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slot != 3 {
		t.Errorf("header: %+v", rep)
	}
	if rep.PausedSeconds != 1 {
		t.Errorf("PausedSeconds = %d", rep.PausedSeconds)
	}
	if rep.Throughput != 100 { // (100+0+200+100)/4
		t.Errorf("Throughput = %v", rep.Throughput)
	}
	if rep.ProcessedTuples != 400 || rep.DroppedTuples != 7 || rep.CostSoFar != 1.5 {
		t.Errorf("totals: %+v", rep)
	}
	if rep.SourceRates[0] != 60 {
		t.Errorf("SourceRates = %v", rep.SourceRates)
	}
	v := rep.Operators[0]
	if v.InRate != 37.5 { // 150/4
		t.Errorf("InRate = %v", v.InRate)
	}
	if v.OutRate != 100 { // 400/4
		t.Errorf("OutRate = %v", v.OutRate)
	}
	if v.ConsumedRate != 50 { // 200/4
		t.Errorf("ConsumedRate = %v", v.ConsumedRate)
	}
	if math.Abs(v.Util-0.7) > 1e-12 { // mean over 3 active ticks
		t.Errorf("Util = %v", v.Util)
	}
	if v.Backlog != 5 { // last tick
		t.Errorf("Backlog = %v", v.Backlog)
	}
	if rep.AvgLatencySec != 0.5 {
		t.Errorf("AvgLatencySec = %v", rep.AvgLatencySec)
	}
	if v.Tasks != 3 || v.CPUMilli != 1000 {
		t.Errorf("metadata: %+v", v)
	}
	if v.CapacityObs != v.OutRate/v.Util || v.Backpressured {
		t.Errorf("derived fields: CapacityObs = %v, Backpressured = %v", v.CapacityObs, v.Backpressured)
	}
}

func TestAccumulatorErrors(t *testing.T) {
	acc, err := NewSlotAccumulator(0, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	acc.Tick([]float64{1}, tick(0, false, streamsim.OpTick{}))
	// Finishing before all ticks ran is rejected.
	if _, err := acc.Finish([]string{"op"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("early finish accepted")
	}
	acc.Tick([]float64{1}, tick(0, false, streamsim.OpTick{}))
	if _, err := acc.Finish([]string{"op", "extra"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("metadata mismatch accepted")
	}
	if _, err := acc.Finish([]string{"op"}, []int{1}, []int{1000}, 0, 0); err != nil {
		t.Errorf("valid finish rejected: %v", err)
	}
	if err := acc.Reset(1, 0); err == nil {
		t.Error("Reset to a zero-second slot accepted")
	}
}

// TestAccumulatorResetMatchesFresh: an accumulator Reset after a slot
// reports the next slot exactly as a fresh one does.
func TestAccumulatorResetMatchesFresh(t *testing.T) {
	used, err := NewSlotAccumulator(0, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		used.Tick([]float64{70}, tick(90, i == 1, streamsim.OpTick{Arrived: 9, Emitted: 8, Consumed: 7, Util: 0.6, Buffered: 3}))
	}
	if _, err := used.Finish([]string{"op"}, []int{2}, []int{1000}, 0, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSlotAccumulator(4, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := used.Reset(4, 2); err != nil {
		t.Fatal(err)
	}
	var reps [2]*Snapshot
	for k, acc := range []*SlotAccumulator{used, fresh} {
		acc.Tick([]float64{50}, tick(40, false, streamsim.OpTick{Arrived: 5, Emitted: 4, Consumed: 3, Util: 0.4, Buffered: 1}))
		acc.Tick([]float64{30}, tick(20, true, streamsim.OpTick{Buffered: 6}))
		if reps[k], err = acc.Finish([]string{"op"}, []int{3}, []int{500}, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("after Reset: %+v\nfresh:       %+v", reps[0], reps[1])
	}
}

// TestAccumulatorBacklogAfterPausedLastTick: on a real engine whose last
// two ticks of the slot are paused, Finish reports each operator's backlog
// as the last tick left it, though the accumulator keeps only the engine's
// scratch buffer and every earlier tick wrote a different backlog there.
func TestAccumulatorBacklogAfterPausedLastTick(t *testing.T) {
	b := dag.NewBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, mp, sh, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(2), dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lin, err := streamsim.NewLinearCurve(100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamsim.New(streamsim.Config{Graph: g, Models: []streamsim.CapacityModel{lin, lin}})
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 6
	acc, err := NewSlotAccumulator(0, 2, 1, seconds)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{150} // above the map's 100/s, so its backlog grows
	var last []streamsim.OpTick
	var paused bool
	for sec := 0; sec < seconds; sec++ {
		if sec == seconds-2 {
			eng.Pause(2)
		}
		st, err := eng.Tick(rates)
		if err != nil {
			t.Fatal(err)
		}
		acc.Tick(rates, st)
		last, paused = append(last[:0], st.Ops...), st.Paused
	}
	if !paused {
		t.Fatal("the slot's last tick ran")
	}
	rep, err := acc.Finish([]string{"map", "shuffle"}, []int{1, 1}, []int{1000, 1000}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, om := range rep.Operators {
		if om.Backlog != last[i].Buffered {
			t.Errorf("%s: Backlog = %v, the last tick left %v", om.Name, om.Backlog, last[i].Buffered)
		}
	}
	if rep.Operators[0].Backlog <= 50*(seconds-2) {
		t.Errorf("map backlog %v did not grow through the paused ticks", rep.Operators[0].Backlog)
	}
	if rep.PausedSeconds != 2 {
		t.Errorf("PausedSeconds = %d, want 2", rep.PausedSeconds)
	}
}
