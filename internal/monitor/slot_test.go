package monitor

import (
	"math"
	"reflect"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/streamsim"
)

// oneOp returns the totals of a one-operator, one-source slot.
func oneOp(active, paused int, sink, lat, rate, arrived, emitted, consumed, util, backlog float64) *streamsim.Totals {
	return &streamsim.Totals{
		Active: active, Paused: paused, Sink: sink, Latency: lat,
		Rates: []float64{rate},
		Ops: []streamsim.OpTotals{{
			Arrived: arrived, Emitted: emitted, Consumed: consumed, Util: util, Backlog: backlog,
		}},
	}
}

func TestNewSlotAccumulatorValidation(t *testing.T) {
	// Empty totals cover a zero-second slot, which must still be refused
	// rather than divided by.
	if _, err := SlotReport(0, 0, oneOp(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), []string{"op"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("zero seconds accepted")
	}
	if _, err := SlotReport(0, -1, oneOp(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), []string{"op"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("negative seconds accepted")
	}
}

func TestAccumulatorAverages(t *testing.T) {
	// 4 ticks, one paused and three active, of sink 100, 0, 200 and 100
	// at rate 60; the active ticks report util 0.5, 0.9 and 0.7, and the
	// last leaves a backlog of 5.
	tot := oneOp(3, 1, 400, 2, 240, 150, 400, 200, 0.5+0.9+0.7, 5)
	rep, err := SlotReport(3, 4, tot, []string{"op"}, []int{3}, []int{1000}, 7, 1.5)
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
	// A slot that never ran reports zero utilization, not a 0/0.
	rep, err = SlotReport(0, 2, oneOp(0, 2, 0, 0, 0, 0, 0, 0, 0, 9), []string{"op"}, []int{1}, []int{1000}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Operators[0]; v.Util != 0 || v.CapacityObs != 0 || v.Backlog != 9 {
		t.Errorf("all-paused slot: %+v", v)
	}
}

func TestAccumulatorErrors(t *testing.T) {
	// Totals over fewer ticks than the slot has are rejected.
	if _, err := SlotReport(0, 2, oneOp(1, 0, 0, 0, 1, 0, 0, 0, 0, 0), []string{"op"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("early finish accepted")
	}
	tot := oneOp(1, 1, 0, 0, 2, 0, 0, 0, 0, 0)
	if _, err := SlotReport(0, 2, tot, []string{"op", "extra"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("metadata mismatch accepted")
	}
	if _, err := SlotReport(0, 2, tot, []string{"op"}, []int{1}, []int{1000, 1000}, 0, 0); err == nil {
		t.Error("CPU length mismatch accepted")
	}
	if _, err := SlotReport(0, 2, tot, []string{"op"}, []int{1}, []int{1000}, 0, 0); err != nil {
		t.Errorf("valid finish rejected: %v", err)
	}
}

// chainEngine builds source → map(sel 2) → shuffle(sel 1) → sink with
// both operators at 100 tuples/s per task and no noise.
func chainEngine(t *testing.T) *streamsim.Engine {
	t.Helper()
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
	return eng
}

// TestAccumulatorResetMatchesFresh: an engine whose totals BeginSlot
// emptied after a slot reports the next slot exactly as a fresh engine
// does. The first slot's pause leaves a backlog that its last tick
// drains at ample capacity, so both engines start the second slot with
// empty queues.
func TestAccumulatorResetMatchesFresh(t *testing.T) {
	used, fresh := chainEngine(t), chainEngine(t)
	for _, e := range []*streamsim.Engine{used, fresh} {
		if err := e.SetTasks([]int{20, 40}); err != nil {
			t.Fatal(err)
		}
	}
	used.BeginSlot()
	for i := 0; i < 3; i++ {
		if i == 1 {
			used.Pause(1)
		}
		if err := used.Tick([]float64{70}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := SlotReport(0, 3, used.Totals(), []string{"map", "shuffle"}, []int{20, 40}, []int{1000, 1000}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if used.BufferedTotal() != 0 {
		t.Fatalf("first slot left a backlog of %v", used.BufferedTotal())
	}
	var reps [2]*Snapshot
	for k, e := range []*streamsim.Engine{used, fresh} {
		e.BeginSlot()
		if err := e.Tick([]float64{50}); err != nil {
			t.Fatal(err)
		}
		e.Pause(1)
		if err := e.Tick([]float64{30}); err != nil {
			t.Fatal(err)
		}
		var err error
		if reps[k], err = SlotReport(4, 2, e.Totals(), []string{"map", "shuffle"}, []int{3, 3}, []int{500, 500}, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("after BeginSlot: %+v\nfresh:            %+v", reps[0], reps[1])
	}
}

// TestAccumulatorBacklogAfterPausedLastTick: on a real engine whose last
// two ticks of the slot are paused, the report gives each operator's
// backlog as the last tick left it, which grew through the pause.
func TestAccumulatorBacklogAfterPausedLastTick(t *testing.T) {
	eng := chainEngine(t)
	const seconds = 6
	rates := []float64{150} // above the map's 100/s, so its backlog grows
	eng.BeginSlot()
	var before float64
	for sec := 0; sec < seconds; sec++ {
		if sec == seconds-2 {
			eng.Pause(2)
		}
		before = eng.BufferedTotal()
		if err := eng.Tick(rates); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := SlotReport(0, seconds, eng.Totals(), []string{"map", "shuffle"}, []int{1, 1}, []int{1000, 1000}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// In a chain each operator has one input edge and the sink's is empty
	// after the last active tick, so the backlogs add up, in edge order, to
	// what the engine holds now.
	if got, want := rep.Operators[0].Backlog+rep.Operators[1].Backlog, eng.BufferedTotal(); got != want {
		t.Errorf("backlogs add to %v, the last tick left %v", got, want)
	}
	if rep.Operators[0].Backlog != before+150 {
		t.Errorf("map backlog %v, want the last paused tick's %v", rep.Operators[0].Backlog, before+150)
	}
	if rep.Operators[0].Backlog <= 50*(seconds-2) {
		t.Errorf("map backlog %v did not grow through the paused ticks", rep.Operators[0].Backlog)
	}
	if rep.PausedSeconds != 2 {
		t.Errorf("PausedSeconds = %d, want 2", rep.PausedSeconds)
	}
}
