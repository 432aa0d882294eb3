package dag

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildChain constructs source → map → shuffle → sink with the given
// selectivities, the WordCount shape used across the evaluation.
func buildChain(t testing.TB, selMap, selShuffle float64) *Graph {
	t.Helper()
	b := NewBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	if err := b.Chain([]NodeID{src, mp, sh, snk}, []ThroughputFunc{nil, Selectivity(selMap), Selectivity(selShuffle)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildChainBasics(t *testing.T) {
	g := buildChain(t, 2, 1)
	if g.NumOperators() != 2 || g.NumSources() != 1 {
		t.Fatalf("N=%d M=%d", g.NumSources(), g.NumOperators())
	}
	if g.OperatorName(0) != "map" || g.OperatorName(1) != "shuffle" {
		t.Errorf("operator order: %v, %v", g.OperatorName(0), g.OperatorName(1))
	}
	ops := g.Operators()
	if g.OperatorIndex(ops[1]) != 1 {
		t.Errorf("OperatorIndex mismatch")
	}
	if g.OperatorIndex(g.Sources()[0]) != -1 {
		t.Error("source must not have an operator index")
	}
	if topo := g.TopoOrder(); g.KindOf(topo[len(topo)-1]) != Sink {
		t.Error("sink kind wrong")
	}
	if Kind(42).String() == "" || Source.String() != "source" {
		t.Error("Kind.String broken")
	}
}

func TestEvaluateUncapped(t *testing.T) {
	g := buildChain(t, 2, 1)
	// rate 100, huge capacities: map doubles to 200, shuffle passes 200.
	rep, err := g.Evaluate([]float64{100}, []float64{1e9, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput != 200 {
		t.Errorf("Throughput = %v, want 200", rep.Throughput)
	}
	if rep.Inflow[0] != 100 || rep.Inflow[1] != 200 {
		t.Errorf("Inflow = %v", rep.Inflow)
	}
	if rep.Demand[0] != 200 || rep.Demand[1] != 200 {
		t.Errorf("Demand = %v", rep.Demand)
	}
	if rep.Output[0] != 200 || rep.Output[1] != 200 {
		t.Errorf("Output = %v", rep.Output)
	}
}

func TestEvaluateCapacityTruncation(t *testing.T) {
	g := buildChain(t, 2, 1)
	// Map capacity 150 < demand 200: throughput capped at 150 downstream.
	rep, err := g.Evaluate([]float64{100}, []float64{150, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput != 150 {
		t.Errorf("Throughput = %v, want 150", rep.Throughput)
	}
	// Soft constraint l_0 = Demand − y = 200 − 150 = 50 > 0 (violated).
	if got := rep.Demand[0] - 150; got != 50 {
		t.Errorf("l_map = %v, want 50", got)
	}
	// Shuffle sees only 150 in, demands 150 out.
	if rep.Demand[1] != 150 {
		t.Errorf("shuffle demand = %v, want 150", rep.Demand[1])
	}
}

func TestEvaluateFanOutSplit(t *testing.T) {
	// source splits 0.6/0.4 to two operators which merge at a sink.
	b := NewBuilder()
	src := b.Source("s")
	a := b.Operator("a")
	c := b.Operator("c")
	snk := b.Sink("k")
	b.Edge(src, a, nil, 0.6)
	b.Edge(src, c, nil, 0.4)
	b.Edge(a, snk, Selectivity(1), 1)
	b.Edge(c, snk, Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Evaluate([]float64{100}, []float64{1e9, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput != 100 {
		t.Errorf("fan-out throughput = %v, want 100", rep.Throughput)
	}
	if rep.Inflow[g.OperatorIndex(a)] != 60 || rep.Inflow[g.OperatorIndex(c)] != 40 {
		t.Errorf("split inflows = %v", rep.Inflow)
	}
}

func TestEvaluateJoinMinRate(t *testing.T) {
	// Two sources joined: output limited by the slower scaled input.
	b := NewBuilder()
	s1 := b.Source("s1")
	s2 := b.Source("s2")
	j := b.Operator("join")
	snk := b.Sink("k")
	b.Edge(s1, j, nil, 1)
	b.Edge(s2, j, nil, 1)
	mr, err := NewMinRate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(j, snk, mr, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := g.Throughput([]float64{100, 30}, []float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	if th != 30 {
		t.Errorf("join throughput = %v, want 30", th)
	}
}

func TestAlphaCapacitySplitting(t *testing.T) {
	// One operator fanning out 0.5/0.5 to two sinks with limited capacity:
	// each edge gets at most α·y.
	b := NewBuilder()
	src := b.Source("s")
	op := b.Operator("op")
	k1 := b.Sink("k1")
	k2 := b.Sink("k2")
	b.Edge(src, op, nil, 1)
	b.Edge(op, k1, Selectivity(1), 0.5)
	b.Edge(op, k2, Selectivity(1), 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Evaluate([]float64{100}, []float64{80})
	if err != nil {
		t.Fatal(err)
	}
	// Each edge: min(0.5·80, 100) = 40 → total 80.
	if rep.Throughput != 80 {
		t.Errorf("split-capacity throughput = %v, want 80", rep.Throughput)
	}
}

func TestBuildValidationErrors(t *testing.T) {
	mk := func(f func(b *Builder)) error {
		b := NewBuilder()
		f(b)
		_, err := b.Build()
		return err
	}
	cases := []struct {
		name string
		f    func(b *Builder)
		want string
	}{
		{"empty", func(b *Builder) {}, "empty"},
		{"no sink", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			b.Edge(s, o, nil, 1)
			b.Edge(o, s, Selectivity(1), 1)
		}, "incoming"},
		{"source with h", func(b *Builder) {
			s := b.Source("s")
			k := b.Sink("k")
			b.Edge(s, k, Selectivity(1), 1)
		}, "must not carry"},
		{"operator without h", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			b.Edge(o, k, nil, 1)
		}, "needs a throughput function"},
		{"bad alpha sum", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 0.7)
			b.Edge(o, k, Selectivity(1), 1)
		}, "sum to"},
		{"negative alpha", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, -1)
			b.Edge(o, k, Selectivity(1), 1)
		}, "invalid splitting weight"},
		{"dangling operator", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			b.Operator("lost")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			b.Edge(o, k, Selectivity(1), 1)
		}, "no predecessors"},
		{"isolated source", func(b *Builder) {
			b.Source("s")
			s2 := b.Source("s2")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s2, o, nil, 1)
			b.Edge(o, k, Selectivity(1), 1)
		}, "no successors"},
		{"duplicate edge", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 0.5)
			b.Edge(s, o, nil, 0.5)
			b.Edge(o, k, Selectivity(1), 1)
		}, "duplicate"},
		{"unknown node", func(b *Builder) {
			s := b.Source("s")
			b.Edge(s, NodeID(99), nil, 1)
		}, "unknown node"},
		{"h dimension mismatch", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			two, _ := NewLinear(1, 1) // expects 2 inputs, operator has 1
			b.Edge(o, k, two, 1)
		}, "probe failed"},
		// The sweeps evaluate a Linear inline, so Build's arity check is
		// all that stands between a wrong-length K and a silent result.
		{"Linear longer than its inputs", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			b.Edge(o, k, Linear{K: []float64{1, 1}}, 1)
		}, "probe failed: dag: Linear expects 2 inputs, got 1"},
		{"Linear shorter than its inputs", func(b *Builder) {
			s1, s2 := b.Source("s1"), b.Source("s2")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s1, o, nil, 1)
			b.Edge(s2, o, nil, 1)
			b.Edge(o, k, Selectivity(1), 1)
		}, "probe failed: dag: Linear expects 1 inputs, got 2"},
		{"empty Linear", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			b.Edge(o, k, Linear{}, 1)
		}, "probe failed: dag: Linear expects 0 inputs, got 1"},
		{"h gradient dimension mismatch", func(b *Builder) {
			s := b.Source("s")
			o := b.Operator("o")
			k := b.Sink("k")
			b.Edge(s, o, nil, 1)
			b.Edge(o, k, twoInputVJP{}, 1)
		}, "probe failed"},
	}
	for _, c := range cases {
		err := mk(c.f)
		if err == nil {
			t.Errorf("%s: Build succeeded, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

// twoInputVJP evaluates any input vector but its gradient method expects
// exactly two inputs: an h whose arity bug only the gradient path reaches.
type twoInputVJP struct{}

func (twoInputVJP) Eval(in []float64) float64 { return in[0] }

func (twoInputVJP) AddVJP(in []float64, a float64, inAdj []float64) {
	if len(in) != 2 {
		panic(fmt.Sprintf("twoInputVJP expects 2 inputs, got %d", len(in)))
	}
	inAdj[0] += a
}

func (twoInputVJP) Name() string { return "two-input-vjp" }

func TestCycleDetection(t *testing.T) {
	b := NewBuilder()
	s := b.Source("s")
	o1 := b.Operator("o1")
	o2 := b.Operator("o2")
	k := b.Sink("k")
	b.Edge(s, o1, nil, 1)
	b.Edge(o1, o2, Selectivity(1), 0.5)
	b.Edge(o2, o1, Selectivity(1), 0.5)
	b.Edge(o1, k, Selectivity(1), 0.5)
	b.Edge(o2, k, Selectivity(1), 0.5)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestEvaluateArgValidation(t *testing.T) {
	g := buildChain(t, 1, 1)
	if _, err := g.Evaluate([]float64{1, 2}, []float64{1, 1}); err == nil {
		t.Error("wrong rate count accepted")
	}
	if _, err := g.Evaluate([]float64{1}, []float64{1}); err == nil {
		t.Error("wrong capacity count accepted")
	}
	if _, err := g.Evaluate([]float64{-1}, []float64{1, 1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := g.Evaluate([]float64{1}, []float64{math.NaN(), 1}); err == nil {
		t.Error("NaN capacity accepted")
	}
}

func TestGradientIdentifiesBottleneck(t *testing.T) {
	g := buildChain(t, 2, 1)
	// Map is saturated (capacity 150 < demand 200); shuffle has slack.
	val, grad, err := g.Gradient([]float64{100}, []float64{150, 400})
	if err != nil {
		t.Fatal(err)
	}
	if val != 150 {
		t.Errorf("Gradient value = %v, want 150", val)
	}
	if grad[0] <= 0 {
		t.Errorf("∂f/∂y_map = %v, want positive (bottleneck)", grad[0])
	}
	if grad[1] != 0 {
		t.Errorf("∂f/∂y_shuffle = %v, want 0 (slack)", grad[1])
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	g := buildChain(t, 1.7, 0.9)
	rates := []float64{120}
	y := []float64{160, 130}
	_, grad, err := g.Gradient(rates, y)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	for i := range y {
		yp := append([]float64(nil), y...)
		ym := append([]float64(nil), y...)
		yp[i] += h
		ym[i] -= h
		fp, err := g.Throughput(rates, yp)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := g.Throughput(rates, ym)
		if err != nil {
			t.Fatal(err)
		}
		want := (fp - fm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, grad[i], want)
		}
	}
}

// TestThroughputMonotoneConcaveProperty verifies the two structural facts
// Theorem 1 leans on: f is non-decreasing in every capacity and concave
// along capacity rays.
func TestThroughputMonotoneConcaveProperty(t *testing.T) {
	g := buildChain(t, 2, 1)
	rates := []float64{100}
	f := func(a, bRaw uint16) bool {
		y1 := 1 + float64(a%500)
		y2 := 1 + float64(bRaw%500)
		base, err := g.Throughput(rates, []float64{y1, y2})
		if err != nil {
			return false
		}
		up, err := g.Throughput(rates, []float64{y1 + 10, y2})
		if err != nil {
			return false
		}
		if up < base-1e-9 { // monotone in y1
			return false
		}
		// concavity along the diagonal: f(mid) ≥ (f(lo)+f(hi))/2
		lo, err := g.Throughput(rates, []float64{y1, y2})
		if err != nil {
			return false
		}
		hi, err := g.Throughput(rates, []float64{y1 + 100, y2 + 100})
		if err != nil {
			return false
		}
		mid, err := g.Throughput(rates, []float64{y1 + 50, y2 + 50})
		if err != nil {
			return false
		}
		return mid >= (lo+hi)/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTanhThroughputFunc(t *testing.T) {
	b := NewBuilder()
	s := b.Source("s")
	o := b.Operator("o")
	k := b.Sink("k")
	b.Edge(s, o, nil, 1)
	th, err := NewTanh(500, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(o, k, th, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// tanh saturates: doubling the rate far past the knee barely helps.
	f1, err := g.Throughput([]float64{300}, []float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := g.Throughput([]float64{600}, []float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	if f2-f1 > 20 {
		t.Errorf("tanh did not saturate: f(300)=%v f(600)=%v", f1, f2)
	}
	if f1 >= 500 {
		t.Errorf("tanh exceeded amplitude: %v", f1)
	}
}

func TestThroughputFuncValidation(t *testing.T) {
	if _, err := NewLinear(); err == nil {
		t.Error("empty Linear accepted")
	}
	if _, err := NewLinear(-1); err == nil {
		t.Error("negative Linear rate accepted")
	}
	if _, err := NewMinRate(); err == nil {
		t.Error("empty MinRate accepted")
	}
	if _, err := NewMinRate(math.NaN()); err == nil {
		t.Error("NaN MinRate accepted")
	}
	if _, err := NewTanh(0, 1); err == nil {
		t.Error("zero Tanh amplitude accepted")
	}
	if _, err := NewTanh(1); err == nil {
		t.Error("Tanh without rates accepted")
	}
}

func mustMinRate(t *testing.T, k ...float64) MinRate {
	t.Helper()
	m, err := NewMinRate(k...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustTanh(t *testing.T, k1 float64, k ...float64) Tanh {
	t.Helper()
	th, err := NewTanh(k1, k...)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestSelectivityPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Selectivity(-1) did not panic")
		}
	}()
	Selectivity(-1)
}

// TestCoverDemand: on source → map (×2) → shuffle (×1) → sink at 150
// tuples/s with 100 tuples/s per task, map and shuffle each need 300, so
// three tasks; capped at two tasks, map saturates at 200 and shuffle,
// fed only that, needs two as well.
func TestCoverDemand(t *testing.T) {
	g := buildChain(t, 2, 1)
	linear := func(op, n int) float64 { return 100 * float64(n) }
	for _, tc := range []struct {
		maxTasks  int
		wantTasks []int
		wantCaps  []float64
	}{
		{10, []int{3, 3}, []float64{300, 300}},
		{2, []int{2, 2}, []float64{200, 200}},
	} {
		tasks, caps, err := g.CoverDemand([]float64{150}, tc.maxTasks, linear)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tasks) != fmt.Sprint(tc.wantTasks) || fmt.Sprint(caps) != fmt.Sprint(tc.wantCaps) {
			t.Errorf("maxTasks %d: tasks %v caps %v, want %v %v", tc.maxTasks, tasks, caps, tc.wantTasks, tc.wantCaps)
		}
	}
	if _, _, err := g.CoverDemand([]float64{1, 2}, 10, linear); err == nil {
		t.Error("wrong rate count accepted")
	}
}

// TestBuildCopiesRateVectors: Build copies the K of every Linear, MinRate
// and Tanh edge, so a caller that edits its slices after Build does not
// move the graph's flows.
func TestBuildCopiesRateVectors(t *testing.T) {
	b := NewBuilder()
	s1 := b.Source("s1")
	s2 := b.Source("s2")
	j := b.Operator("join")
	l := b.Operator("linear")
	th := b.Operator("tanh")
	snk := b.Sink("k")
	b.Edge(s1, j, nil, 1)
	b.Edge(s2, j, nil, 1)
	mr := mustMinRate(t, 1, 2)
	lin, err := NewLinear(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tanh := mustTanh(t, 500, 0.01)
	b.Edge(j, l, mr, 1)
	b.Edge(l, th, lin, 1)
	b.Edge(th, snk, tanh, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rates, y := []float64{300, 100}, []float64{1e9, 1e9, 1e9}
	before, err := g.Evaluate(rates, y)
	if err != nil {
		t.Fatal(err)
	}
	mr.K[0], mr.K[1] = 7, 7
	lin.K[0] = 9
	tanh.K[0] = 3
	after, err := g.Evaluate(rates, y)
	if err != nil {
		t.Fatal(err)
	}
	flows := func(r *FlowReport) string {
		return fmt.Sprint(r.Throughput, r.Inflow, r.Demand, r.Output)
	}
	if flows(after) != flows(before) {
		t.Errorf("editing the caller's K after Build moved the graph: %s → %s", flows(before), flows(after))
	}
}

func TestGraphAccessorsCopy(t *testing.T) {
	g := buildChain(t, 1, 1)
	ops := g.Operators()
	ops[0] = NodeID(999)
	if g.Operators()[0] == NodeID(999) {
		t.Error("Operators leaked internal slice")
	}
	topo := g.TopoOrder()
	topo[0] = NodeID(999)
	if g.TopoOrder()[0] == NodeID(999) {
		t.Error("TopoOrder leaked internal slice")
	}
}

func BenchmarkEvaluateChain(b *testing.B) {
	g := buildChain(b, 2, 1)
	rates := []float64{100}
	y := []float64{150, 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Evaluate(rates, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGradientChain(b *testing.B) {
	g := buildChain(b, 2, 1)
	rates := []float64{100}
	y := []float64{150, 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Gradient(rates, y); err != nil {
			b.Fatal(err)
		}
	}
}
