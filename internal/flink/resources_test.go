package flink

import (
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/streamsim"
)

// newResourceJob builds a one-operator job whose capacity scales with both
// tasks and per-pod CPU.
func newResourceJob(t testing.TB) (*SessionCluster, *Job) {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("source")
	op := b.Operator("op")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, op, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := streamsim.NewLinearCurve(100)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := streamsim.NewCPUScaledCurve(base, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamsim.New(streamsim.Config{Graph: g, Models: []streamsim.CapacityModel{curve}})
	if err != nil {
		t.Fatal(err)
	}
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 4, cluster.ResourceSpec{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(k8s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.SubmitJob("res", g, eng, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return s, j
}

func TestRescaleResourcesAppliesCPU(t *testing.T) {
	s, j := newResourceJob(t)
	rates := func(int) []float64 { return []float64{500} }

	rep, err := j.RunSlot(60, rates)
	if err != nil {
		t.Fatal(err)
	}
	// 2 tasks × 100 × (1000/1000) = 200 capacity < offered 500.
	if rep.Throughput > 210 {
		t.Fatalf("baseline throughput = %v", rep.Throughput)
	}
	if got := j.EffectiveCPUMilli(); got[0] != 1000 {
		t.Fatalf("baseline CPU = %v", got)
	}
	if rep.Operators[0].CPUMilli != 1000 {
		t.Errorf("vertex CPU = %d", rep.Operators[0].CPUMilli)
	}

	// Vertical scale: 3 tasks at 2000m → 600 capacity ≥ 500.
	if err := j.RescaleResources([]int{3}, []int{2000}); err != nil {
		t.Fatal(err)
	}
	if got := j.EffectiveCPUMilli(); got[0] != 2000 {
		t.Fatalf("CPU after resize = %v", got)
	}
	rep, err = j.RunSlot(180, rates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedSeconds != 30 {
		t.Errorf("resize did not charge the savepoint pause: %d", rep.PausedSeconds)
	}
	// Steady state (after the pause + catch-up): 500/s.
	if rep.Throughput < 450 {
		t.Errorf("throughput after vertical scale = %v, want ≈500", rep.Throughput)
	}
	// Pods actually carry the new template.
	for _, p := range s.k8s.Pods() {
		if p.Deployment == "tm-res-op" && p.Spec.CPUMilli != 2000 {
			t.Errorf("pod %s CPU = %d", p.Name, p.Spec.CPUMilli)
		}
	}
}

func TestRescaleResourcesValidation(t *testing.T) {
	_, j := newResourceJob(t)
	if err := j.RescaleResources([]int{1}, []int{50}); err == nil {
		t.Error("sub-100m CPU accepted")
	}
	if err := j.RescaleResources([]int{1}, []int{1000, 2000}); err == nil {
		t.Error("wrong CPU length accepted")
	}
	// No-op resource rescale must not pause.
	if err := j.RescaleResources([]int{2}, []int{1000}); err != nil {
		t.Fatal(err)
	}
	rep, err := j.RunSlot(30, func(int) []float64 { return []float64{10} })
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedSeconds != 0 {
		t.Errorf("no-op rescale paused %ds", rep.PausedSeconds)
	}
}
