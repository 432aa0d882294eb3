package dag_test

import (
	"fmt"
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/stats"
)

// dyadicPoint draws rates, capacities and multipliers on the coarse grid
// the mixed-graph tape test uses, so min(α·y, h) ties exactly.
func dyadicPoint(g *dag.Graph, rng *stats.RNG) (rates, y, lambda []float64) {
	rates = make([]float64, g.NumSources())
	for i := range rates {
		rates[i] = []float64{64, 128}[rng.Intn(2)]
	}
	y = make([]float64, g.NumOperators())
	lambda = make([]float64, g.NumOperators())
	for i := range y {
		y[i] = []float64{16, 32, 64, 128, 256}[rng.Intn(5)]
		if rng.Intn(2) == 0 {
			lambda[i] = rng.Uniform(0, 2)
		}
	}
	return rates, y, lambda
}

// wantPiecewise is the piecewise-linear rule restated: every operator
// out-edge is a Linear, a LearnedLinear or a MinRate, and there are at
// most 64 of them.
func wantPiecewise(g *dag.Graph) bool {
	n := 0
	for _, id := range g.Operators() {
		for _, ei := range g.SuccEdgeIDs(id) {
			switch g.HByID(ei).(type) {
			case dag.Linear, *dag.LearnedLinear, dag.MinRate:
			default:
				return false
			}
			n++
		}
	}
	return n <= 64
}

// TestLagrangianForwardMatchesGradientL: the forward sweep alone, on a
// fresh workspace, returns LagrangianGradient's (and the tape's) L bit for
// bit, and the graph reports itself piecewise linear exactly when every
// operator out-edge is a Linear, a LearnedLinear or a MinRate.
func TestLagrangianForwardMatchesGradientL(t *testing.T) {
	rng := stats.NewRNG(51)
	var piecewise, other int
	for trial := 0; trial < 200; trial++ {
		var g *dag.Graph
		if trial%2 == 0 {
			g = randomLayeredGraph(t, rng)
		} else {
			g = mixedGraph(t, rng)
		}
		rates, y, lambda := dyadicPoint(g, rng)
		wantL, _, err := g.LagrangianGradient(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		gotL, err := g.LagrangianForward(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		gotPiecewise := g.PiecewiseLinear()
		if math.Float64bits(gotL) != math.Float64bits(wantL) {
			t.Fatalf("trial %d: forward L = %v, LagrangianGradient %v", trial, gotL, wantL)
		}
		if tapeL, _, _, _ := tapeLagrangian(g, rates, y, lambda); math.Float64bits(gotL) != math.Float64bits(tapeL) {
			t.Fatalf("trial %d: forward L = %v, tape %v", trial, gotL, tapeL)
		}
		if gotPiecewise != wantPiecewise(g) {
			t.Fatalf("trial %d: piecewise linear = %v, want %v", trial, gotPiecewise, !gotPiecewise)
		}
		if gotPiecewise {
			piecewise++
		} else {
			other++
		}
	}
	if piecewise == 0 || other == 0 {
		t.Fatalf("generators gave %d piecewise-linear graphs and %d others", piecewise, other)
	}
}

// TestBranchPatternIsTheCapacityTest: the branch of min(α·y, h(e)) the
// forward sweep takes on each operator out-edge (the pattern, recomputed
// from the edge's input flows) is exactly the reverse sweep's capacity
// test, flow == α·y, over the flows the sweep leaves behind.
func TestBranchPatternIsTheCapacityTest(t *testing.T) {
	rng := stats.NewRNG(52)
	ws := new(dag.Workspace)
	var set, unset int
	for trial := 0; trial < 300; trial++ {
		var g *dag.Graph
		if trial%2 == 0 {
			g = randomLayeredGraph(t, rng)
		} else {
			g = mixedGraph(t, rng)
		}
		rates, y, lambda := dyadicPoint(g, rng)
		if _, err := g.LagrangianForward(ws, rates, y, lambda); err != nil {
			t.Fatal(err)
		}
		pattern := dag.BranchPattern(g, ws, y)
		flows := dag.SweptFlows(ws)
		edges, ops := dag.PatternEdges(g)
		for b, ei := range edges {
			capacity := flows[ei] == g.AlphaByID(ei)*y[ops[b]]
			if bit := pattern>>uint(b)&1 == 1; bit != capacity {
				t.Fatalf("trial %d: edge %d bit = %v, capacity test = %v", trial, ei, bit, capacity)
			}
			if capacity {
				set++
			} else {
				unset++
			}
		}
	}
	if set == 0 || unset == 0 {
		t.Fatalf("generator exercised %d capacity and %d demand branches", set, unset)
	}
}

// TestPatternDeterminesPureGradient: on a Linear-only graph, two capacity
// vectors with the same branch pattern have bit-identical gradients at the
// same λ — L is linear on each pattern's cell, the fact the OSP's exact
// level-1 solve rests on.
func TestPatternDeterminesPureGradient(t *testing.T) {
	rng := stats.NewRNG(53)
	ws := new(dag.Workspace)
	var shared int
	for trial := 0; trial < 40; trial++ {
		g := randomLayeredGraph(t, rng)
		rates, _, lambda := dyadicPoint(g, rng)
		seen := map[uint64][]float64{}
		for draw := 0; draw < 50; draw++ {
			y := make([]float64, g.NumOperators())
			for i := range y {
				y[i] = rng.Uniform(1, 2000)
			}
			if _, err := g.LagrangianForward(ws, rates, y, lambda); err != nil {
				t.Fatal(err)
			}
			pattern := dag.BranchPattern(g, ws, y)
			if !g.PiecewiseLinear() {
				t.Fatalf("trial %d: a Linear-only graph is not piecewise linear", trial)
			}
			grad := g.LagrangianReverse(ws, y, lambda)
			want, ok := seen[pattern]
			if !ok {
				seen[pattern] = append([]float64(nil), grad...)
				continue
			}
			shared++
			for i := range want {
				if math.Float64bits(grad[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d: pattern %b gives ∂L/∂y[%d] = %v and %v", trial, pattern, i, grad[i], want[i])
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two draws shared a pattern")
	}
}

// chainGraph builds source → n Linear operators → sink.
func chainGraph(t *testing.T, n int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	nodes := []dag.NodeID{b.Source("src")}
	hs := []dag.ThroughputFunc{nil}
	for i := 0; i < n; i++ {
		nodes = append(nodes, b.Operator(fmt.Sprintf("op-%d", i)))
		hs = append(hs, dag.Selectivity(1))
	}
	nodes = append(nodes, b.Sink("sink"))
	if err := b.Chain(nodes, hs); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPurityNeedsAtMost64Edges: the exact level-1 solve is bounded to 64
// operator out-edges, so a Linear graph with 65 is not piecewise linear.
func TestPurityNeedsAtMost64Edges(t *testing.T) {
	for _, c := range []struct {
		ops  int
		pure bool
	}{{1, true}, {64, true}, {65, false}} {
		g := chainGraph(t, c.ops)
		y := make([]float64, c.ops)
		for i := range y {
			y[i] = 10
		}
		if _, err := g.LagrangianForward(new(dag.Workspace), []float64{5}, y, make([]float64, c.ops)); err != nil {
			t.Fatal(err)
		}
		if got := g.PiecewiseLinear(); got != c.pure {
			t.Errorf("%d-operator chain: piecewise linear = %v, want %v", c.ops, got, c.pure)
		}
	}
}

// TestBuildCopiesLinearRates: the Graph is immutable, so mutating the
// caller's K after Build changes neither Evaluate nor the edge's h.
func TestBuildCopiesLinearRates(t *testing.T) {
	k := []float64{2}
	b := dag.NewBuilder()
	src := b.Source("src")
	op := b.Operator("op")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, op, snk}, []dag.ThroughputFunc{nil, dag.Linear{K: k}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before, err := g.Evaluate([]float64{10}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	k[0] = 5
	after, err := g.Evaluate([]float64{10}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if before.Throughput != 20 || after.Throughput != 20 || after.Demand[0] != 20 {
		t.Errorf("throughput %v then %v (demand %v) after mutating K, want 20", before.Throughput, after.Throughput, after.Demand[0])
	}
	if got := g.HByID(g.SuccEdgeIDs(op)[0]).(dag.Linear).K[0]; got != 2 {
		t.Errorf("edge h has K[0] = %v, want the 2 it was built with", got)
	}
}

// opaque hides a ThroughputFunc's concrete type, so the sweeps reach a
// Linear through its interface methods instead of the inline path.
type opaque struct{ dag.ThroughputFunc }

// rebuild copies g, wrapping every edge function in opaque when hide is
// set. Edges are re-added head by head in predecessor order, so both
// copies share one structure whatever the wrapping.
func rebuild(t *testing.T, g *dag.Graph, hide bool) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	n := len(g.TopoOrder())
	for id := dag.NodeID(0); int(id) < n; id++ {
		switch g.KindOf(id) {
		case dag.Source:
			b.Source(g.Name(id))
		case dag.Operator:
			b.Operator(g.Name(id))
		case dag.Sink:
			b.Sink(g.Name(id))
		}
	}
	for to := dag.NodeID(0); int(to) < n; to++ {
		for _, ei := range g.PredEdgeIDs(to) {
			h := g.HByID(ei)
			if hide && h != nil {
				h = opaque{h}
			}
			b.Edge(g.EdgeByID(ei).From, to, h, g.AlphaByID(ei))
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInlineLinearMatchesInterface: the inline Linear evaluation and VJP
// are bit-identical to Linear.Eval and Linear.AddVJP, in L, the gradient
// and every evaluated flow.
func TestInlineLinearMatchesInterface(t *testing.T) {
	rng := stats.NewRNG(54)
	for trial := 0; trial < 60; trial++ {
		g := randomLayeredGraph(t, rng)
		inline, iface := rebuild(t, g, false), rebuild(t, g, true)
		rates, y, lambda := dyadicPoint(g, rng)
		if trial%2 == 0 {
			for i := range y {
				y[i] = rng.Uniform(1, 2000)
			}
		}
		if !inline.PiecewiseLinear() || iface.PiecewiseLinear() {
			t.Fatalf("trial %d: piecewise linear = %v inline, %v behind the interface", trial, inline.PiecewiseLinear(), iface.PiecewiseLinear())
		}
		wantL, wantGrad, err := iface.LagrangianGradient(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		gotL, gotGrad, err := inline.LagrangianGradient(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotL) != math.Float64bits(wantL) {
			t.Fatalf("trial %d: inline L = %v, interface %v", trial, gotL, wantL)
		}
		for i := range wantGrad {
			if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("trial %d: inline ∂L/∂y[%d] = %v, interface %v", trial, i, gotGrad[i], wantGrad[i])
			}
		}
		want, err := iface.Evaluate(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inline.Evaluate(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2][]float64{{got.Inflow, want.Inflow}, {got.Demand, want.Demand}, {got.Output, want.Output}, {{got.Throughput}, {want.Throughput}}} {
			for i := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("trial %d: inline report %v, interface %v", trial, pair[0], pair[1])
				}
			}
		}
	}
}
