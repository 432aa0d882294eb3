package osp

import (
	"fmt"
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/mathx"
	"dragster/internal/stats"
	"dragster/internal/workload"
)

// referenceStep is Step without the gradient memo: every inner iteration
// calls LagrangianGradient, regularizes the workspace's gradient in place
// and takes its Norm2. It advances o's slot, duals-facing state and warm
// start exactly as Step does, so two optimizers fed the same inputs, one
// through Step and one through referenceStep, must agree bit for bit.
func referenceStep(o *Optimizer, ws *dag.Workspace, rates []float64) ([]float64, error) {
	if len(rates) != o.g.NumSources() {
		return nil, fmt.Errorf("osp: got %d rates, want %d", len(rates), o.g.NumSources())
	}
	o.t++
	objective := func(y []float64) (float64, []float64, error) {
		l, grad, err := o.g.LagrangianGradient(ws, rates, y, o.lambda)
		if err != nil {
			return 0, nil, err
		}
		for i := range grad {
			l -= economyWeight * y[i]
			grad[i] -= economyWeight
		}
		return l, grad, nil
	}
	var y []float64
	switch o.cfg.Method {
	case SaddlePoint:
		y = append([]float64(nil), o.yPrev...)
		best := append([]float64(nil), y...)
		bestL := math.Inf(-1)
		step0 := o.cfg.YMax / 8
		for k := 1; k <= innerIters; k++ {
			l, grad, err := objective(y)
			if err != nil {
				return nil, err
			}
			if l > bestL {
				bestL = l
				copy(best, y)
			}
			gn := mathx.Norm2(grad)
			if gn < 1e-12 {
				break
			}
			step := step0 / math.Sqrt(float64(k))
			for i := range y {
				y[i] = mathx.Clamp(y[i]+step*grad[i]/gn, 0, o.cfg.YMax)
			}
		}
		if l, _, err := objective(y); err == nil && l > bestL {
			copy(best, y)
		}
		y = best
		rep, err := o.g.Evaluate(rates, y)
		if err != nil {
			return nil, err
		}
		for i := range y {
			if need := rep.Demand[i] * headroomFactor; y[i] < need {
				y[i] = math.Min(need, o.cfg.YMax)
			}
		}
	case GradientDescent:
		_, grad, err := objective(o.yPrev)
		if err != nil {
			return nil, err
		}
		gn := mathx.Norm2(grad)
		y = make([]float64, len(o.yPrev))
		if gn < 1e-12 {
			copy(y, o.yPrev)
			break
		}
		eta := o.cfg.YMax / 10
		for i := range y {
			y[i] = mathx.Clamp(o.yPrev[i]+eta*grad[i]/gn, 0, o.cfg.YMax)
		}
	}
	copy(o.yPrev, y)
	return y, nil
}

type memoCase struct {
	name  string
	g     *dag.Graph
	rates []float64 // base offered load; each step scales it
	yMax  float64
	pure  bool
}

// memoCases covers the six workload graphs, random layered graphs, and
// graphs whose MinRate, Tanh or LearnedLinear edges take the unmemoized
// path.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	specs, err := workload.All()
	if err != nil {
		t.Fatal(err)
	}
	var cases []memoCase
	for _, s := range specs {
		cases = append(cases, memoCase{name: s.Name, g: s.Graph, rates: s.HighRates, yMax: s.YMax, pure: s.Name != "join"})
	}
	rng := stats.NewRNG(61)
	for i := 0; i < 8; i++ {
		g, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, g.NumSources())
		for j := range rates {
			rates[j] = rng.Uniform(50, 500)
		}
		cases = append(cases, memoCase{name: fmt.Sprintf("random-%d", i), g: g, rates: rates, yMax: 4000, pure: true})
	}
	tanh, err := dag.NewTanh(900, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	learned, err := dag.NewLearnedLinear(1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []float64{100, 200} {
		if err := learned.ObserveRates(in, 0.8*in); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		h    dag.ThroughputFunc
	}{{"tanh", tanh}, {"learned-linear", learned}} {
		b := dag.NewBuilder()
		nodes := []dag.NodeID{b.Source("src"), b.Operator("map"), b.Operator("reduce"), b.Sink("sink")}
		if err := b.Chain(nodes, []dag.ThroughputFunc{nil, c.h, dag.Selectivity(0.5)}); err != nil {
			t.Fatal(err)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, memoCase{name: c.name, g: g, rates: []float64{400}, yMax: 2000})
	}
	return cases
}

// TestMemoizedStepMatchesReference: over 50 steps with ObserveViolations
// between them, Step's targets and duals equal referenceStep's bit for
// bit, for both methods, with λ that moves every step, λ that stays put
// at a nonzero value, and λ = 0.
func TestMemoizedStepMatchesReference(t *testing.T) {
	for _, c := range memoCases(t) {
		_, _, pure, err := c.g.LagrangianForward(new(dag.Workspace), c.rates, make([]float64, c.g.NumOperators()), make([]float64, c.g.NumOperators()))
		if err != nil {
			t.Fatal(err)
		}
		if pure != c.pure {
			t.Fatalf("%s: pure = %v, want %v", c.name, pure, c.pure)
		}
		for _, method := range []Method{SaddlePoint, GradientDescent} {
			for _, duals := range []string{"moving", "fixed", "zero"} {
				label := fmt.Sprintf("%s/%v/%s", c.name, method, duals)
				checkAgainstReference(t, label, c, method, duals)
			}
		}
	}
}

func checkAgainstReference(t *testing.T, label string, c memoCase, method Method, duals string) {
	t.Helper()
	cfg := Config{Method: method, YMax: c.yMax}
	o, err := New(c.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(c.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ws dag.Workspace
	rng := stats.NewRNG(62)
	rates := make([]float64, len(c.rates))
	viol := make([]float64, c.g.NumOperators())
	for step := 0; step < 50; step++ {
		for i, r := range c.rates {
			rates[i] = r * rng.Uniform(0.3, 1.7)
		}
		got, err := o.Step(rates)
		if err != nil {
			t.Fatalf("%s step %d: %v", label, step, err)
		}
		want, err := referenceStep(ref, &ws, rates)
		if err != nil {
			t.Fatalf("%s step %d: reference: %v", label, step, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s step %d: y[%d] = %v, reference %v", label, step, i, got[i], want[i])
			}
		}
		if method == SaddlePoint && (len(o.memo.patterns) > 0) != c.pure {
			t.Fatalf("%s step %d: %d memo entries on a graph with pure = %v", label, step, len(o.memo.patterns), c.pure)
		}
		for i := range viol {
			switch {
			case duals == "moving", duals == "fixed" && step < 5:
				viol[i] = c.yMax * rng.Uniform(-0.05, 0.2)
			case duals == "fixed":
				viol[i] = 0
			default:
				viol[i] = -c.yMax * rng.Uniform(0, 0.2)
			}
		}
		if err := o.ObserveViolations(viol); err != nil {
			t.Fatal(err)
		}
		if err := ref.ObserveViolations(viol); err != nil {
			t.Fatal(err)
		}
	}
	lambda := o.Duals()
	for i, l := range ref.Duals() {
		if math.Float64bits(lambda[i]) != math.Float64bits(l) {
			t.Fatalf("%s: λ[%d] = %v, reference %v", label, i, lambda[i], l)
		}
		if duals == "zero" && l != 0 || duals == "fixed" && l == 0 && i == 0 {
			t.Fatalf("%s: λ = %v does not fit the %s case", label, lambda, duals)
		}
	}
}

// TestWarmStepAllocations: a warm Step on the Yahoo graph allocates only
// the target it returns (before the memo it made eight allocations: the
// iterate, the best point and the headroom FlowReport with its slices),
// and a memo hit allocates nothing.
func TestWarmStepAllocations(t *testing.T) {
	spec, err := workload.Yahoo()
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(spec.Graph, Config{YMax: spec.YMax})
	if err != nil {
		t.Fatal(err)
	}
	rates := spec.HighRates
	if _, err := o.Step(rates); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := o.Step(rates); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("warm Step allocates %v times, want at most 1", n)
	}
	y := append([]float64(nil), o.yPrev...)
	o.memo.reset()
	if _, _, _, err := o.objective(rates, y); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := o.objective(rates, y); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memo hit allocates %v times", n)
	}
	if len(o.memo.patterns) != 1 {
		t.Errorf("repeated objective at one y stored %d memo entries, want 1", len(o.memo.patterns))
	}
}

// TestNonPureObjectiveDoesNotAllocate: graphs outside the memo (here the
// Join workload's MinRate) run the reverse sweep every call without
// allocating.
func TestNonPureObjectiveDoesNotAllocate(t *testing.T) {
	spec, err := workload.Join()
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(spec.Graph, Config{YMax: spec.YMax})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{30000}
	if _, _, _, err := o.objective(spec.HighRates, y); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := o.objective(spec.HighRates, y); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("non-pure objective allocates %v times", n)
	}
}

// BenchmarkSaddlePointStepYahoo is one production-shaped level-1 slot on
// the Yahoo graph: λ moves on the violations of the last target realized
// at 90% before every Step, as the controller's dual update moves it.
// (BenchmarkSaddlePointStep keeps λ at 0.)
func BenchmarkSaddlePointStepYahoo(b *testing.B) {
	spec, err := workload.Yahoo()
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Graph
	o, err := New(g, Config{YMax: spec.YMax})
	if err != nil {
		b.Fatal(err)
	}
	rates := spec.HighRates
	y, err := o.Step(rates)
	if err != nil {
		b.Fatal(err)
	}
	realized := make([]float64, len(y))
	viol := make([]float64, len(y))
	var rep dag.FlowReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range y {
			realized[j] = 0.9 * y[j]
		}
		if err := g.EvaluateInto(&rep, rates, realized); err != nil {
			b.Fatal(err)
		}
		for j := range viol {
			viol[j] = rep.Demand[j] - realized[j]
		}
		if err := o.ObserveViolations(viol); err != nil {
			b.Fatal(err)
		}
		if y, err = o.Step(rates); err != nil {
			b.Fatal(err)
		}
	}
}
