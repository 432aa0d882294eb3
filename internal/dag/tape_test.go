package dag_test

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/stats"
)

// tape is a minimal scalar reverse-mode AD tape: the bit-equality oracle
// for Graph.LagrangianGradient. Nodes are appended in topological order,
// so the backward pass is one reverse sweep that adds each node's adjoint
// times its local partials into its parents.
type tape struct {
	nodes []tapeNode
	// ties counts Min calls whose arguments were equal (routed to the
	// first), so tests can check the tie rule was exercised.
	ties int
}

type tapeNode struct {
	value   float64
	parents [2]int     // indices into nodes; -1 when unused
	grads   [2]float64 // local partials w.r.t. the parents
}

// tv is a handle to a node on a tape.
type tv struct {
	t   *tape
	idx int
}

func (t *tape) push(v float64, p0, p1 int, g0, g1 float64) tv {
	t.nodes = append(t.nodes, tapeNode{value: v, parents: [2]int{p0, p1}, grads: [2]float64{g0, g1}})
	return tv{t: t, idx: len(t.nodes) - 1}
}

// Const records a constant; Var an input variable. Both are leaves.
func (t *tape) Const(v float64) tv { return t.push(v, -1, -1, 0, 0) }
func (t *tape) Var(v float64) tv   { return t.push(v, -1, -1, 0, 0) }

func (v tv) Value() float64 { return v.t.nodes[v.idx].value }

func (v tv) Add(o tv) tv { return v.t.push(v.Value()+o.Value(), v.idx, o.idx, 1, 1) }
func (v tv) Sub(o tv) tv { return v.t.push(v.Value()-o.Value(), v.idx, o.idx, 1, -1) }

// Scale returns c·v for a plain constant c.
func (v tv) Scale(c float64) tv { return v.t.push(c*v.Value(), v.idx, -1, c, 0) }

// Tanh returns tanh(v); d/dx tanh = 1 − tanh².
func (v tv) Tanh() tv {
	th := math.Tanh(v.Value())
	return v.t.push(th, v.idx, -1, 1-th*th, 0)
}

// Min returns min(v, o), routing the gradient to the attaining argument
// and to v on ties.
func (v tv) Min(o tv) tv {
	if v.Value() == o.Value() {
		v.t.ties++
	}
	if v.Value() <= o.Value() {
		return v.t.push(v.Value(), v.idx, o.idx, 1, 0)
	}
	return v.t.push(o.Value(), v.idx, o.idx, 0, 1)
}

// tapeDot returns Σ cᵢ·vᵢ.
func tapeDot(c []float64, vs []tv) tv {
	out := vs[0].Scale(c[0])
	for i := 1; i < len(vs); i++ {
		out = out.Add(vs[i].Scale(c[i]))
	}
	return out
}

// backward runs the reverse sweep from out and returns the adjoint of
// every node, indexed like the tape.
func (t *tape) backward(out tv) []float64 {
	adj := make([]float64, len(t.nodes))
	adj[out.idx] = 1
	for i := out.idx; i >= 0; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		n := &t.nodes[i]
		if n.parents[0] >= 0 {
			adj[n.parents[0]] += a * n.grads[0]
		}
		if n.parents[1] >= 0 {
			adj[n.parents[1]] += a * n.grads[1]
		}
	}
	return adj
}

// tapeGradient evaluates f over fresh variables at x and returns f(x) and
// ∇f(x).
func tapeGradient(x []float64, f func(t *tape, vars []tv) tv) (float64, []float64) {
	t := &tape{}
	vars := make([]tv, len(x))
	for i, xi := range x {
		vars[i] = t.Var(xi)
	}
	out := f(t, vars)
	adj := t.backward(out)
	grad := make([]float64, len(x))
	for i, v := range vars {
		grad[i] = adj[v.idx]
	}
	return out.Value(), grad
}

// tapeH records h on the tape.
func tapeH(h dag.ThroughputFunc, in []tv) tv {
	switch h := h.(type) {
	case dag.Linear:
		return tapeDot(h.K, in)
	case dag.MinRate:
		out := in[0].Scale(h.K[0])
		for i := 1; i < len(in); i++ {
			out = out.Min(in[i].Scale(h.K[i]))
		}
		return out
	case dag.Tanh:
		return tapeDot(h.K, in).Tanh().Scale(h.K1)
	case *dag.LearnedLinear:
		return in[0].Scale(h.K())
	}
	panic(fmt.Sprintf("tape oracle: no rule for %T", h))
}

// tapeLagrangian tapes L(y, λ) = f(y) − Σ_i λ_i·(demand_i − y_i) over the
// topological evaluation of g, with the λ terms last, and differentiates
// it. capTies counts min(α·y, h) ties.
func tapeLagrangian(g *dag.Graph, rates, y, lambda []float64) (val float64, grad []float64, capTies, minTies int) {
	val, grad = tapeGradient(y, func(t *tape, vars []tv) tv {
		flows := make([]tv, g.NumEdges())
		demand := make([]tv, g.NumOperators())
		srcIndex := map[dag.NodeID]int{}
		for i, id := range g.Sources() {
			srcIndex[id] = i
		}
		total := t.Const(0)
		for _, id := range dag.TopoOrder(g) {
			switch g.KindOf(id) {
			case dag.Source:
				rate := rates[srcIndex[id]]
				for _, ei := range g.SuccEdgeIDs(id) {
					flows[ei] = t.Const(g.AlphaByID(ei) * rate)
				}
			case dag.Operator:
				oi := g.OperatorIndex(id)
				var in []tv
				for _, ei := range g.PredEdgeIDs(id) {
					in = append(in, flows[ei])
				}
				dem := t.Const(0)
				for _, ei := range g.SuccEdgeIDs(id) {
					before := t.ties
					want := tapeH(g.HByID(ei), in)
					minTies += t.ties - before
					dem = dem.Add(want)
					before = t.ties
					flows[ei] = vars[oi].Scale(g.AlphaByID(ei)).Min(want)
					capTies += t.ties - before
				}
				demand[oi] = dem
			case dag.Sink:
				for _, ei := range g.PredEdgeIDs(id) {
					total = total.Add(flows[ei])
				}
			}
		}
		out := total
		for i, dem := range demand {
			if lambda[i] != 0 {
				out = out.Sub(dem.Sub(vars[i]).Scale(lambda[i]))
			}
		}
		return out
	})
	return val, grad, capTies, minTies
}

// requireBitEqual checks LagrangianGradient against the tape oracle bit
// for bit and returns the oracle's tie counts.
func requireBitEqual(t *testing.T, label string, g *dag.Graph, ws *dag.Workspace, rates, y, lambda []float64) (capTies, minTies int) {
	t.Helper()
	wantL, wantGrad, capTies, minTies := tapeLagrangian(g, rates, y, lambda)
	gotL, gotGrad, err := g.LagrangianGradient(ws, rates, y, lambda)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Float64bits(gotL) != math.Float64bits(wantL) {
		t.Fatalf("%s: L = %v, tape %v", label, gotL, wantL)
	}
	for i := range wantGrad {
		if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("%s: ∂L/∂y[%d] = %v, tape %v (y=%v λ=%v)", label, i, gotGrad[i], wantGrad[i], y, lambda)
		}
	}
	return capTies, minTies
}

// TestLagrangianGradientMatchesTapeOnRandomGraphs: the reverse sweep is
// bit-equal to the taped gradient on the shared random layered graphs,
// with λ zero on about half the operators and in (0, 2) on the rest.
func TestLagrangianGradientMatchesTapeOnRandomGraphs(t *testing.T) {
	rng := stats.NewRNG(38)
	ws := new(dag.Workspace)
	for trial := 0; trial < 40; trial++ {
		g, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		y := make([]float64, g.NumOperators())
		lambda := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = rng.Uniform(1, 2000)
			if rng.Intn(2) == 0 {
				lambda[i] = rng.Uniform(0, 2)
			}
		}
		requireBitEqual(t, fmt.Sprintf("trial %d", trial), g, ws, rates, y, lambda)
	}
}

// mixedGraph builds a random layered DAG whose operator edges draw Linear,
// MinRate, Tanh and (on one-input operators) LearnedLinear functions,
// with weights on a coarse dyadic grid so that MinRate arguments and
// min(α·y, h) tie exactly. Some graphs get two sinks.
func mixedGraph(t *testing.T, rng *stats.RNG) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	var layers [][]dag.NodeID
	var srcs []dag.NodeID
	for i := 0; i < 1+rng.Intn(2); i++ {
		srcs = append(srcs, b.Source(fmt.Sprintf("src-%d", i)))
	}
	layers = append(layers, srcs)
	for l := 0; l < 1+rng.Intn(3); l++ {
		var layer []dag.NodeID
		for i := 0; i < 1+rng.Intn(3); i++ {
			layer = append(layer, b.Operator(fmt.Sprintf("op-%d-%d", l, i)))
		}
		layers = append(layers, layer)
	}
	var sinks []dag.NodeID
	for i := 0; i < 1+rng.Intn(2); i++ {
		sinks = append(sinks, b.Sink(fmt.Sprintf("sink-%d", i)))
	}
	layers = append(layers, sinks)

	type edge struct{ from, to dag.NodeID }
	var edges []edge
	seen := map[edge]bool{}
	add := func(from, to dag.NodeID) {
		if e := (edge{from, to}); !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for k := 0; k+1 < len(layers); k++ {
		cur, next := layers[k], layers[k+1]
		for i, from := range cur {
			add(from, next[i%len(next)])
		}
		for i, to := range next {
			add(cur[i%len(cur)], to)
		}
		if rng.Float64() < 0.5 {
			add(cur[rng.Intn(len(cur))], next[rng.Intn(len(next))])
		}
	}
	inCount := map[dag.NodeID]int{}
	outCount := map[dag.NodeID]int{}
	for _, e := range edges {
		inCount[e.to]++
		outCount[e.from]++
	}
	isSource := map[dag.NodeID]bool{}
	for _, s := range srcs {
		isSource[s] = true
	}
	weight := func() float64 { return []float64{0.5, 1, 1, 1, 2}[rng.Intn(5)] }
	for _, e := range edges {
		var h dag.ThroughputFunc
		if !isSource[e.from] {
			ks := make([]float64, inCount[e.from])
			for i := range ks {
				ks[i] = weight()
			}
			var err error
			switch r := rng.Intn(8); {
			case r < 3:
				h, err = dag.NewLinear(ks...)
			case r < 6:
				h, err = dag.NewMinRate(ks...)
			case r < 7:
				for i := range ks {
					ks[i] *= 1e-3
				}
				h, err = dag.NewTanh(100*weight(), ks...)
			case len(ks) == 1:
				var l *dag.LearnedLinear
				l, err = dag.NewLearnedLinear(weight())
				for i, n := 0, rng.Intn(3); err == nil && i < n; i++ {
					err = l.ObserveRates(64, 64*weight())
				}
				h = l
			default:
				h, err = dag.NewMinRate(ks...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		b.Edge(e.from, e.to, h, 1/float64(outCount[e.from]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("mixed graph invalid: %v", err)
	}
	return g
}

// TestLagrangianGradientMatchesTapeOnMixedGraphs: the reverse sweep is
// bit-equal to the taped gradient over every throughput-function kind,
// fan-out, several sinks, λ ≠ 0, and exact MinRate and capacity ties.
func TestLagrangianGradientMatchesTapeOnMixedGraphs(t *testing.T) {
	rng := stats.NewRNG(39)
	ws := new(dag.Workspace)
	var capTies, minTies int
	for trial := 0; trial < 300; trial++ {
		g := mixedGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = []float64{64, 128}[rng.Intn(2)]
		}
		y := make([]float64, g.NumOperators())
		lambda := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = []float64{16, 32, 64, 128, 256}[rng.Intn(5)]
			if rng.Intn(2) == 0 {
				lambda[i] = rng.Uniform(0, 2)
			}
		}
		c, m := requireBitEqual(t, fmt.Sprintf("trial %d", trial), g, ws, rates, y, lambda)
		capTies += c
		minTies += m
		c, m = requireBitEqual(t, fmt.Sprintf("trial %d at λ=0", trial), g, ws, rates, y, make([]float64, len(y)))
		capTies += c
		minTies += m
	}
	t.Logf("ties exercised: %d capacity, %d MinRate", capTies, minTies)
	if capTies == 0 || minTies == 0 {
		t.Fatalf("generator forced no ties: %d capacity, %d MinRate", capTies, minTies)
	}
}

// numericGrad approximates ∂f/∂x_i by central differences.
func numericGrad(x []float64, i int, f func([]float64) float64) float64 {
	const h = 1e-6
	xp := append([]float64(nil), x...)
	xm := append([]float64(nil), x...)
	xp[i] += h
	xm[i] -= h
	return (f(xp) - f(xm)) / (2 * h)
}

func TestTanhGradient(t *testing.T) {
	eval := func(x []float64) float64 { return math.Tanh(2*x[0] + 1) }
	x := []float64{0.3}
	_, grad := tapeGradient(x, func(tp *tape, v []tv) tv {
		return v[0].Scale(2).Add(tp.Const(1)).Tanh()
	})
	want := numericGrad(x, 0, eval)
	if math.Abs(grad[0]-want) > 1e-6 {
		t.Errorf("tanh grad = %v, want %v", grad[0], want)
	}
}

func TestMinMaxSubgradient(t *testing.T) {
	// min routes to the attaining side.
	_, grad := tapeGradient([]float64{2, 5}, func(tp *tape, v []tv) tv {
		return v[0].Min(v[1])
	})
	if grad[0] != 1 || grad[1] != 0 {
		t.Errorf("min grad = %v, want [1 0]", grad)
	}
	_, grad = tapeGradient([]float64{5, 2}, func(tp *tape, v []tv) tv {
		return v[0].Min(v[1])
	})
	if grad[0] != 0 || grad[1] != 1 {
		t.Errorf("min grad = %v, want [0 1]", grad)
	}
	// Ties route to the first argument.
	_, grad = tapeGradient([]float64{3, 3}, func(tp *tape, v []tv) tv {
		return v[0].Min(v[1])
	})
	if grad[0] != 1 || grad[1] != 0 {
		t.Errorf("tie min grad = %v, want [1 0]", grad)
	}
}

func TestFanOutAccumulates(t *testing.T) {
	// f(x) = 3x + x → grad = 4 (node reused twice).
	_, grad := tapeGradient([]float64{3}, func(tp *tape, v []tv) tv {
		return v[0].Scale(3).Add(v[0])
	})
	if grad[0] != 4 {
		t.Errorf("fan-out grad = %v, want 4", grad[0])
	}
}

func TestConstHasZeroGradient(t *testing.T) {
	// f(x) = 10·x + 10: the constant takes an adjoint but has no parents.
	_, grad := tapeGradient([]float64{2}, func(tp *tape, v []tv) tv {
		return v[0].Scale(10).Add(tp.Const(10))
	})
	if grad[0] != 10 {
		t.Errorf("grad x = %v, want 10", grad[0])
	}
}

// TestGradientMatchesNumericProperty checks a composite DAG-shaped function
// against central differences at random points: the same structure (sum of
// truncated mins with a tanh stage) that the DAG evaluation tapes.
func TestGradientMatchesNumericProperty(t *testing.T) {
	eval := func(x []float64) float64 {
		a := math.Min(0.8*x[0], 2*x[1])
		b := math.Tanh(0.5*x[2]) * 3
		return a + math.Min(b, x[0])
	}
	f := func(r0, r1, r2 float64) bool {
		// Keep away from the min kinks where subgradients legitimately
		// disagree with central differences.
		x := []float64{2 + math.Abs(math.Mod(r0, 3)), 5 + math.Abs(math.Mod(r1, 3)), 1 + math.Abs(math.Mod(r2, 2))}
		kink := math.Abs(0.8*x[0]-2*x[1]) < 1e-3 || math.Abs(math.Tanh(0.5*x[2])*3-x[0]) < 1e-3
		if kink {
			return true
		}
		val, grad := tapeGradient(x, func(tp *tape, v []tv) tv {
			a := v[0].Scale(0.8).Min(v[1].Scale(2))
			b := v[2].Scale(0.5).Tanh().Scale(3)
			return a.Add(b.Min(v[0]))
		})
		if math.Abs(val-eval(x)) > 1e-9 {
			return false
		}
		for i := range x {
			if math.Abs(grad[i]-numericGrad(x, i, eval)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
