package streamsim

import (
	"math"
	"testing"

	"dragster/internal/dag"
)

func TestNewCPUScaledCurveValidation(t *testing.T) {
	base, err := NewLinearCurve(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCPUScaledCurve(nil, 1000, 0.8); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewCPUScaledCurve(base, 0, 0.8); err == nil {
		t.Error("zero ref accepted")
	}
	if _, err := NewCPUScaledCurve(base, 1000, 1.5); err == nil {
		t.Error("exponent > 1 accepted")
	}
}

func TestCPUScaledCurveValues(t *testing.T) {
	base, err := NewLinearCurve(100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCPUScaledCurve(base, 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// At the reference CPU the curve matches the base.
	if got := c.CapacityWithCPU(3, 1000); math.Abs(got-300) > 1e-9 {
		t.Errorf("at ref = %v, want 300", got)
	}
	if got := c.Capacity(3); math.Abs(got-300) > 1e-9 {
		t.Errorf("Capacity = %v, want 300", got)
	}
	// 4× CPU at exponent 0.5 doubles capacity.
	if got := c.CapacityWithCPU(3, 4000); math.Abs(got-600) > 1e-9 {
		t.Errorf("at 4× CPU = %v, want 600", got)
	}
	if got := c.CapacityWithCPU(3, 0); got != 0 {
		t.Errorf("zero CPU = %v", got)
	}
}

func TestEngineSetCPUChangesCapacity(t *testing.T) {
	b := dag.NewBuilder()
	src := b.Source("s")
	op := b.Operator("op")
	snk := b.Sink("k")
	if err := b.Chain([]dag.NodeID{src, op, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewLinearCurve(100)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := NewCPUScaledCurve(base, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Models: []CapacityModel{curve}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TrueCapacity(0); got != 100 { // 1 task × default 1000m
		t.Fatalf("default capacity = %v", got)
	}
	if err := e.SetAllocation([]int{1}, []int{2000}); err != nil {
		t.Fatal(err)
	}
	if got := e.TrueCapacity(0); got != 200 {
		t.Errorf("capacity at 2000m = %v, want 200", got)
	}
	// Throughput follows: offered 150/s is processable only at 2000m.
	var st *Totals
	for i := 0; i < 5; i++ {
		st = tickOnce(t, e, 150)
	}
	if math.Abs(st.Sink-150) > 1e-9 {
		t.Errorf("throughput at 2000m = %v", st.Sink)
	}
	// Validation.
	if err := e.SetAllocation([]int{1}, []int{1, 2}); err == nil {
		t.Error("wrong CPU length accepted")
	}
	if err := e.SetAllocation([]int{1, 1}, []int{1000}); err == nil {
		t.Error("wrong task length accepted")
	}
	if err := e.SetAllocation([]int{1}, []int{-5}); err == nil {
		t.Error("negative CPU accepted")
	}
	// Non-resource-aware models ignore CPU.
	e2, err := New(Config{Graph: g, Models: []CapacityModel{base}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetAllocation([]int{1}, []int{4000}); err != nil {
		t.Fatal(err)
	}
	if got := e2.TrueCapacity(0); got != 100 {
		t.Errorf("non-resource-aware capacity changed: %v", got)
	}
}

// TestCachedCapacityTracksModel pins the capacity cache to the models it
// caches, on the ResourceAware and the plain path, through every way the
// allocation changes (including rejected updates, which must not move it).
func TestCachedCapacityTracksModel(t *testing.T) {
	b := dag.NewBuilder()
	src := b.Source("s")
	ops := []dag.NodeID{b.Operator("a"), b.Operator("b"), b.Operator("c")}
	snk := b.Sink("k")
	if err := b.Chain([]dag.NodeID{src, ops[0], ops[1], ops[2], snk},
		[]dag.ThroughputFunc{nil, dag.Selectivity(1), dag.Selectivity(1), dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	power, err := NewPowerCurve(120, 0.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewCPUScaledCurve(power, 1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	saturating, err := NewSaturatingCurve(power, 500)
	if err != nil {
		t.Fatal(err)
	}
	models := []CapacityModel{power, scaled, saturating}
	e, err := New(Config{Graph: g, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		tasks, cpu := e.TasksView(), e.CPUView()
		tickOnce(t, e, 50)
		for i, m := range models {
			want := m.Capacity(tasks[i])
			if ra, ok := m.(ResourceAware); ok {
				want = ra.CapacityWithCPU(tasks[i], cpu[i])
			}
			if got := e.TrueCapacity(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: cached capacity of op %d = %v, model gives %v", when, i, got, want)
			}
			for _, step := range e.steps {
				if int(step.op) == i && math.Float64bits(step.y) != math.Float64bits(want) {
					t.Errorf("%s: tick capacity of op %d = %v, model gives %v", when, i, step.y, want)
				}
			}
		}
	}
	check("construction")
	if err := e.SetTasks([]int{3, 5, 7}); err != nil {
		t.Fatal(err)
	}
	check("SetTasks")
	if err := e.SetAllocation([]int{3, 5, 7}, []int{500, 2500, 1500}); err != nil {
		t.Fatal(err)
	}
	check("SetAllocation")
	if err := e.SetAllocation([]int{3, 6, 7}, []int{500, 2500, 2000}); err != nil {
		t.Fatal(err)
	}
	check("SetAllocation of two operators")
	if err := e.SetTasks([]int{1, -1, 2}); err == nil {
		t.Fatal("negative task count accepted")
	}
	if err := e.SetAllocation([]int{1, 1, 1}, []int{1000, 1000}); err == nil {
		t.Fatal("short CPU vector accepted")
	}
	check("rejected updates")
	if err := e.SetTasks([]int{0, 2, 4}); err != nil {
		t.Fatal(err)
	}
	check("SetTasks to zero")
}
