package osp

import (
	"math"
	"slices"
	"testing"

	"dragster/internal/dag"
)

// twoOpChain builds source → map(sel 2) → shuffle(sel 1) → sink.
func twoOpChain(t testing.TB) *dag.Graph {
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
	return g
}

func TestNewValidation(t *testing.T) {
	g := twoOpChain(t)
	if _, err := New(nil, Config{YMax: 100}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, Config{}); err == nil {
		t.Error("zero YMax accepted")
	}
	if _, err := New(g, Config{YMax: -100}); err == nil {
		t.Error("negative YMax accepted")
	}
}

func TestSaddlePointTargetsCoverDemand(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	y, err := o.Step([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	// Demand at map = 200 output/s; shuffle demand = what map emits.
	// Targets must cover demand with headroom.
	if y[0] < 200*headroomFactor {
		t.Errorf("map target %v below demand·headroom %v", y[0], 200*headroomFactor)
	}
	if y[1] < y[0]*0.9 { // shuffle must roughly track map output
		t.Errorf("shuffle target %v far below map emission %v", y[1], y[0])
	}
	if y[0] > 1000 || y[1] > 1000 {
		t.Errorf("targets exceed YMax: %v", y)
	}
	if o.t != 1 {
		t.Errorf("Slot = %d", o.t)
	}
}

func TestSaddlePointScalesDownWhenLoadDrops(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	yHigh, err := o.Step([]float64{200})
	if err != nil {
		t.Fatal(err)
	}
	yHigh = slices.Clone(yHigh) // the next Step reuses the targets' storage
	yLow, err := o.Step([]float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if yLow[0] >= yHigh[0] {
		t.Errorf("target did not shrink with load: high=%v low=%v", yHigh[0], yLow[0])
	}
	// At rate 50 the map demand is 100 — target should be close to it, not
	// pinned at YMax (this is the economy property behind the cost savings).
	if yLow[0] > 300 {
		t.Errorf("low-load target %v wastes capacity", yLow[0])
	}
}

func TestOGDMovesSmoothly(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 1000, Method: GradientDescent})
	if err != nil {
		t.Fatal(err)
	}
	const eta = 1000 / 10 // η = YMax/10
	// Repeated steps move targets by bounded increments (|Δ| ≤ η per step)
	// and hover within one step of the demand kink (map demand = 200 at
	// rate 100; OGD has no hard floor, it tracks).
	prev, err := o.Step([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	prev = slices.Clone(prev) // the next Step reuses the targets' storage
	for i := 0; i < 5; i++ {
		y, err := o.Step([]float64{100})
		if err != nil {
			t.Fatal(err)
		}
		for j := range y {
			if math.Abs(y[j]-prev[j]) > eta+1e-9 {
				t.Errorf("step %d: OGD jump %v → %v exceeds η", i, prev[j], y[j])
			}
		}
		if y[0] < 200-eta-1e-9 {
			t.Errorf("step %d: map target %v more than one step below demand 200", i, y[0])
		}
		prev = slices.Clone(y)
	}
	// The economy regularizer must pull an over-provisioned start downward.
	if prev[0] >= 250 {
		t.Errorf("OGD did not drift down from warm start: %v", prev[0])
	}
}

func TestDualUpdateAndDecay(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step([]float64{100}); err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveViolations([]float64{50, -10}); err != nil {
		t.Fatal(err)
	}
	d := o.Duals()
	// γ_1 = gammaScale, violations scaled by YMax = 1000:
	// λ_0 = gammaScale·50/1000, λ_1 = 0.
	if want := gammaScale * 0.05; math.Abs(d[0]-want) > 1e-9 || d[1] != 0 {
		t.Errorf("duals = %v, want [%v 0]", d, want)
	}
	// Negative violation drives λ back down but never below zero.
	if err := o.ObserveViolations([]float64{-1e6, -1}); err != nil {
		t.Fatal(err)
	}
	d = o.Duals()
	if d[0] != 0 || d[1] != 0 {
		t.Errorf("duals after huge slack = %v, want [0 0]", d)
	}
	// Validation.
	if err := o.ObserveViolations([]float64{1}); err == nil {
		t.Error("wrong violation length accepted")
	}
	if err := o.ObserveViolations([]float64{math.NaN(), 0}); err == nil {
		t.Error("NaN violation accepted")
	}
}

func TestDualsRaiseTargets(t *testing.T) {
	// With a large λ on the shuffle operator, the Lagrangian pushes its
	// target capacity up relative to the dual-free solution.
	g := twoOpChain(t)
	base, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	yBase, err := base.Step([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	pressured, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pressured.Step([]float64{100}); err != nil { // t=1
		t.Fatal(err)
	}
	if err := pressured.ObserveViolations([]float64{0, 500}); err != nil {
		t.Fatal(err)
	}
	yDual, err := pressured.Step([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if yDual[1] < yBase[1] {
		t.Errorf("dual pressure did not raise shuffle target: %v vs %v", yDual[1], yBase[1])
	}
}

func TestStepValidation(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step([]float64{1, 2}); err == nil {
		t.Error("wrong rate count accepted")
	}
	for _, r := range []float64{math.NaN(), -1, math.Inf(1)} {
		if _, err := o.Step([]float64{r}); err == nil {
			t.Errorf("rate %v accepted", r)
		}
	}
	bad := &Optimizer{g: g, cfg: Config{Method: Method(99), YMax: 100}}
	bad.lambda = make([]float64, 2)
	bad.yPrev = make([]float64, 2)
	if _, err := bad.Step([]float64{1}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	if SaddlePoint.String() != "saddle-point" || GradientDescent.String() != "online-gradient-descent" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method has empty name")
	}
}

func TestBottlenecks(t *testing.T) {
	bn, err := Bottlenecks(nil, []float64{100, 100, 100}, []float64{100, 80, 130}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bn) != 2 || bn[0] != 1 || bn[1] != 2 {
		t.Errorf("bottlenecks = %v, want [1 2]", bn)
	}
	if _, err := Bottlenecks(nil, []float64{1}, []float64{1, 2}, 0.1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Bottlenecks(nil, []float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	// Zero realized capacity should not divide by zero.
	bn, err = Bottlenecks(nil, []float64{5}, []float64{0}, 0.1)
	if err != nil || len(bn) != 1 {
		t.Errorf("zero-capacity bottleneck = %v err=%v", bn, err)
	}
}

func BenchmarkSaddlePointStep(b *testing.B) {
	g := twoOpChain(b)
	o, err := New(g, Config{YMax: 1000})
	if err != nil {
		b.Fatal(err)
	}
	rates := []float64{100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Step(rates); err != nil {
			b.Fatal(err)
		}
	}
}
