package monitor

import (
	"math"
	"testing"

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
		if err := acc.Tick([]float64{60}, st); err != nil {
			t.Fatal(err)
		}
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
	if err := acc.Tick([]float64{1}, tick(0, false)); err == nil {
		t.Error("op count mismatch accepted")
	}
	if err := acc.Tick([]float64{1, 2}, tick(0, false, streamsim.OpTick{})); err == nil {
		t.Error("rate count mismatch accepted")
	}
	if err := acc.Tick([]float64{1}, tick(0, false, streamsim.OpTick{})); err != nil {
		t.Fatal(err)
	}
	// Finishing before all ticks ran is rejected.
	if _, err := acc.Finish([]string{"op"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("early finish accepted")
	}
	if err := acc.Tick([]float64{1}, tick(0, false, streamsim.OpTick{})); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Finish([]string{"op", "extra"}, []int{1}, []int{1000}, 0, 0); err == nil {
		t.Error("metadata mismatch accepted")
	}
	if _, err := acc.Finish([]string{"op"}, []int{1}, []int{1000}, 0, 0); err != nil {
		t.Errorf("valid finish rejected: %v", err)
	}
}
