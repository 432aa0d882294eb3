package monitor_test

import (
	"math"
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/streamsim"
)

func buildJob(t testing.TB, perTask float64, initial []int) (*flink.SessionCluster, *flink.Job) {
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
	lin, err := streamsim.NewLinearCurve(perTask)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamsim.New(streamsim.Config{Graph: g, Models: []streamsim.CapacityModel{lin, lin}})
	if err != nil {
		t.Fatal(err)
	}
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 8, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := flink.NewSession(k8s, flink.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.SubmitJob("wc", g, eng, initial)
	if err != nil {
		t.Fatal(err)
	}
	return s, j
}

func TestNewValidation(t *testing.T) {
	if _, err := monitor.New(nil); err == nil {
		t.Error("nil job accepted")
	}
}

func TestCollectBeforeFirstSlotFails(t *testing.T) {
	_, j := buildJob(t, 150, []int{1, 1})
	m, err := monitor.New(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Collect(); err == nil {
		t.Error("pre-slot collect succeeded")
	}
	if _, err := j.RunSlot(30, func(int) []float64 { return []float64{100} }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Collect(); err != nil {
		t.Errorf("collect after the first slot: %v", err)
	}
}

// TestCollectReturnsTheJobReport: the monitor gates the slot report the
// substrate finished and hands that very report on, without a copy.
func TestCollectReturnsTheJobReport(t *testing.T) {
	_, j := buildJob(t, 150, []int{2, 3})
	m, err := monitor.New(j)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		if _, err := j.RunSlot(30, func(int) []float64 { return []float64{100} }); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if snap != j.LastReport() {
			t.Fatalf("slot %d: Collect returned a copy, not the job's report", slot)
		}
		if snap.Slot != slot {
			t.Errorf("snapshot slot = %d, want %d", snap.Slot, slot)
		}
	}
}

func TestCollectCapacityEstimate(t *testing.T) {
	_, j := buildJob(t, 150, []int{2, 3})
	if _, err := j.RunSlot(60, func(int) []float64 { return []float64{100} }); err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(j)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Operators) != 2 {
		t.Fatalf("operators = %d", len(snap.Operators))
	}
	// map: 2 tasks × 150 = 300 true capacity; Eq. 8 should recover it.
	mp := snap.Operators[0]
	if mp.Name != "map" || mp.Tasks != 2 {
		t.Errorf("map metrics = %+v", mp)
	}
	if math.Abs(mp.CapacityObs-300) > 15 {
		t.Errorf("CapacityObs = %v, want ≈300", mp.CapacityObs)
	}
	if mp.Backpressured {
		t.Error("uncongested operator flagged backpressured")
	}
	if snap.Throughput < 190 {
		t.Errorf("snapshot throughput = %v", snap.Throughput)
	}
}

func TestCollectBackpressureSignal(t *testing.T) {
	// Capacity 50/task, demand 200 output/s at 1 task → heavy backlog.
	_, j := buildJob(t, 50, []int{1, 1})
	for k := 0; k < 3; k++ {
		if _, err := j.RunSlot(60, func(int) []float64 { return []float64{100} }); err != nil {
			t.Fatal(err)
		}
	}
	m, err := monitor.New(j)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Operators[0].Backpressured {
		t.Errorf("overloaded map not flagged: %+v", snap.Operators[0])
	}
}

func TestMinUtilFloorsCapacityEstimate(t *testing.T) {
	// Nearly idle operator: tiny offered load with huge capacity would
	// produce a wild estimate if util were used raw; monitor.MinUtil caps it.
	_, j := buildJob(t, 100000, []int{1, 1})
	if _, err := j.RunSlot(30, func(int) []float64 { return []float64{1} }); err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(j)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// OutRate ≈ 2/s, estimate capped at 2/monitor.MinUtil = 40.
	op := snap.Operators[0]
	if op.Util >= monitor.MinUtil {
		t.Fatalf("util %v not below the floor %v; the scenario is not idle", op.Util, monitor.MinUtil)
	}
	if want := op.OutRate / monitor.MinUtil; op.CapacityObs != want || want > 45 {
		t.Errorf("capacity estimate %v not floored at OutRate/monitor.MinUtil = %v", op.CapacityObs, want)
	}
}
