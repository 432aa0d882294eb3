// Package storm_test checks the Apache Storm substrate of §3.2. Storm has
// no code of its own: a Storm topology is a Flink session job built from
// flink.StormOptions, whose only difference is the 10 s rebalance pause.
// These tests drive that preset through the same cases the Storm cluster
// type had.
package storm_test

import (
	"math"
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/experiment"
	"dragster/internal/flink"
	"dragster/internal/streamsim"
	"dragster/internal/workload"
)

func chainGraph(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("spout")
	split := b.Operator("split")
	count := b.Operator("count")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, split, count, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(2), dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newEngine(t testing.TB, g *dag.Graph, perTask float64) *streamsim.Engine {
	t.Helper()
	lin, err := streamsim.NewLinearCurve(perTask)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamsim.New(streamsim.Config{Graph: g, Models: []streamsim.CapacityModel{lin, lin}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTopology(t testing.TB, perTask float64, initial []int) (*flink.SessionCluster, *flink.Job) {
	t.Helper()
	g := chainGraph(t)
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 8, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := flink.NewSession(k8s, flink.StormOptions())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.SubmitJob("wordcount", g, newEngine(t, g, perTask), initial)
	if err != nil {
		t.Fatal(err)
	}
	return s, topo
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := flink.NewSession(nil, flink.StormOptions()); err == nil {
		t.Error("nil cluster accepted")
	}
	empty := cluster.New() // nimbus unschedulable
	if _, err := flink.NewSession(empty, flink.StormOptions()); err == nil {
		t.Error("unschedulable nimbus accepted")
	}
	k8s := cluster.New()
	if err := k8s.AddNode("n", cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	bad := flink.StormOptions()
	bad.RescalePauseSeconds = -1
	if _, err := flink.NewSession(k8s, bad); err == nil {
		t.Error("negative pause accepted")
	}
}

func TestSubmitTopology(t *testing.T) {
	s, topo := newTopology(t, 150, []int{2, 3})
	if topo.Name() != "wordcount" {
		t.Errorf("Name = %q", topo.Name())
	}
	if got := topo.EffectiveParallelism(); got[0] != 2 || got[1] != 3 {
		t.Errorf("parallelism = %v", got)
	}
	cpus := topo.EffectiveCPUMilli()
	if cpus[0] != 1000 || cpus[1] != 1000 {
		t.Errorf("worker CPUs = %v", cpus)
	}
	deps := s.Cluster().Deployments()
	want := map[string]bool{"flink-jobmanager": true, "tm-wordcount-split": true, "tm-wordcount-count": true}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected deployment %q", d)
		}
	}
	// The session hosts several topologies, but each name only once.
	if _, err := s.SubmitJob("wordcount", topo.Graph(), newEngine(t, topo.Graph(), 10), []int{1, 1}); err == nil {
		t.Error("duplicate topology name accepted")
	}
}

func TestSubmitTopologyValidation(t *testing.T) {
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 2, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := flink.NewSession(k8s, flink.StormOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t)
	if _, err := s.SubmitJob("x", nil, nil, []int{1, 1}); err == nil {
		t.Error("nil graph accepted")
	}
	eng := newEngine(t, g, 10)
	if _, err := s.SubmitJob("x", g, eng, []int{1}); err == nil {
		t.Error("wrong initial length accepted")
	}
	if _, err := s.SubmitJob("x", g, eng, []int{0, 1}); err == nil {
		t.Error("zero executors accepted")
	}
}

func TestRunSlotSteadyState(t *testing.T) {
	_, topo := newTopology(t, 150, []int{2, 3})
	rep, err := topo.RunSlot(60, func(int) []float64 { return []float64{100} })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Throughput-200) > 5 {
		t.Errorf("Throughput = %v, want ≈200", rep.Throughput)
	}
	if rep.Vertices[0].Name != "split" || rep.Vertices[0].RunningTasks != 2 {
		t.Errorf("vertex 0 = %+v", rep.Vertices[0])
	}
	if topo.LastReport() != rep || topo.Slot() != 1 {
		t.Error("report bookkeeping wrong")
	}
	if rep.CostSoFar <= 0 {
		t.Error("no cost accrued")
	}
}

func TestRebalanceValidation(t *testing.T) {
	_, topo := newTopology(t, 150, []int{1, 1})
	if err := topo.Rescale([]int{1}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := topo.Rescale([]int{0, 1}); err == nil {
		t.Error("zero executors accepted")
	}
}

// TestRescaleResourcesRejectsVertical checks that Storm's homogeneous
// workers are never resized: the experiment harness, the one place a
// Storm run is configured, refuses vertical scaling, while a rebalance
// that keeps the 1-CPU slot size is accepted.
func TestRescaleResourcesRejectsVertical(t *testing.T) {
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.Run(experiment.Scenario{
		Spec: spec, Rates: rates, Slots: 1, StreamEngine: "storm", VerticalScaling: true,
	}, experiment.DragsterSaddle()); err == nil {
		t.Error("vertical scaling accepted on storm")
	}
	_, topo := newTopology(t, 150, []int{1, 1})
	if err := topo.RescaleResources([]int{2, 2}, []int{1000, 1000}); err != nil {
		t.Errorf("homogeneous rescale rejected: %v", err)
	}
	if got := topo.EffectiveParallelism(); got[0] != 2 || got[1] != 2 {
		t.Errorf("parallelism = %v", got)
	}
	if cpus := topo.EffectiveCPUMilli(); cpus[0] != 1000 || cpus[1] != 1000 {
		t.Errorf("worker CPUs = %v, want homogeneous 1000m", cpus)
	}
}
