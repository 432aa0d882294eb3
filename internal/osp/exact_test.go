package osp

import (
	"fmt"
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/stats"
	"dragster/internal/workload"
)

// edgeRates returns an operator out-edge's rates over its tail's inputs,
// a LearnedLinear's at its current k, and whether the edge is a MinRate.
func edgeRates(t *testing.T, g *dag.Graph, ei int32) (k []float64, join bool) {
	t.Helper()
	switch h := g.HByID(ei).(type) {
	case dag.Linear:
		return h.K, false
	case *dag.LearnedLinear:
		return []float64{h.K()}, false
	case dag.MinRate:
		return h.K, true
	}
	t.Fatalf("edge %d is not piecewise linear", ei)
	return nil, false
}

// vertexMax is the brute-force oracle for Eq. 14 on a piecewise-linear
// graph: the largest L(y, λ) − w·Σy over every vertex of every branch
// pattern's cell. A pattern fixes which term of each min binds: on a
// linear edge its capacity share or its demand; on a MinRate edge the
// input p whose k_p·e_p is the demand and then the capacity share or that
// demand. Within a pattern each flow is an affine function of y, so the
// cell is cut out of the box [0, YMax]^M by the hyperplanes where the
// chosen terms tie with the others (α·y_tail = demand, and on a MinRate
// edge k_p·e_p = k_q·e_q); a linear function's maximum over a cell sits
// where M independent box faces or such hyperplanes meet. It solves every
// such M×M system, keeps the solutions inside the box and scores each one
// with the forward sweep. Cost grows as (patterns)·C(2M+H, M), so it is
// for small graphs only.
func vertexMax(t *testing.T, g *dag.Graph, rates, lambda []float64, yMax float64) float64 {
	t.Helper()
	m := g.NumOperators()
	type affine struct {
		c []float64 // over y
		k float64
	}
	var opEdges []int32
	for _, id := range g.TopoOrder() {
		if g.KindOf(id) == dag.Operator {
			opEdges = append(opEdges, g.SuccEdgeIDs(id)...)
		}
	}
	// choice[b] counts through edge b's patterns: 0 demand and 1 capacity
	// on a linear edge, 2p and 2p+1 the same with input p binding the
	// demand on a MinRate edge.
	choice := make([]int, len(opEdges))
	radix := make([]int, len(opEdges))
	for b, ei := range opEdges {
		k, join := edgeRates(t, g, ei)
		radix[b] = 2
		if join {
			radix[b] = 2 * len(k)
		}
	}
	srcIdx := map[dag.NodeID]int{}
	for i, id := range g.Sources() {
		srcIdx[id] = i
	}
	// Hyperplanes h·y = b: the box faces first, then the pattern's ties.
	var planes [][]float64
	var rhs []float64
	for i := 0; i < m; i++ {
		lo, hi := make([]float64, m), make([]float64, m)
		lo[i], hi[i] = 1, 1
		planes, rhs = append(planes, lo, hi), append(rhs, 0, yMax)
	}
	box := len(planes)
	tie := func(a, b affine) {
		plane := make([]float64, m)
		for i := range plane {
			plane[i] = a.c[i] - b.c[i]
		}
		planes, rhs = append(planes, plane), append(rhs, b.k-a.k)
	}
	var ws dag.Workspace
	best := math.Inf(-1)
	y := make([]float64, m)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
	}
	subset := make([]int, m)
	for {
		planes, rhs = planes[:box], rhs[:box]
		flows := make([]affine, g.NumEdges())
		for _, id := range g.Sources() {
			for _, ei := range g.SuccEdgeIDs(id) {
				flows[ei] = affine{c: make([]float64, m), k: g.AlphaByID(ei) * rates[srcIdx[id]]}
			}
		}
		for b, ei := range opEdges {
			from := g.EdgeByID(ei).From
			preds := g.PredEdgeIDs(from)
			k, join := edgeRates(t, g, ei)
			term := func(p int) affine {
				out := affine{c: make([]float64, m), k: k[p] * flows[preds[p]].k}
				for i, v := range flows[preds[p]].c {
					out.c[i] = k[p] * v
				}
				return out
			}
			want := affine{c: make([]float64, m)}
			if join {
				p := choice[b] / 2
				want = term(p)
				for q := range preds {
					if q != p {
						tie(want, term(q))
					}
				}
			} else {
				for p := range preds {
					tp := term(p)
					for i, v := range tp.c {
						want.c[i] += v
					}
					want.k += tp.k
				}
			}
			share := affine{c: make([]float64, m)}
			share.c[g.OperatorIndex(from)] = g.AlphaByID(ei)
			tie(share, want)
			if choice[b]%2 == 1 {
				flows[ei] = share
			} else {
				flows[ei] = want
			}
		}
		// Every M-subset of the planes, in lexicographic order.
		for i := range subset {
			subset[i] = i
		}
		for {
			for r, p := range subset {
				copy(a[r], planes[p])
				a[r][m] = rhs[p]
			}
			if solveSquare(a, y) {
				in := true
				for i, v := range y {
					if v < -1e-9*yMax || v > yMax*(1+1e-9) {
						in = false
						break
					}
					y[i] = math.Min(math.Max(v, 0), yMax)
				}
				if in {
					l, err := g.LagrangianForward(&ws, rates, y, lambda)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range y {
						l -= economyWeight * v
					}
					best = math.Max(best, l)
				}
			}
			k := m - 1
			for k >= 0 && subset[k] == len(planes)-m+k {
				k--
			}
			if k < 0 {
				break
			}
			subset[k]++
			for i := k + 1; i < m; i++ {
				subset[i] = subset[i-1] + 1
			}
		}
		// The next pattern, first edge fastest.
		b := 0
		for b < len(choice) && choice[b] == radix[b]-1 {
			choice[b] = 0
			b++
		}
		if b == len(choice) {
			return best
		}
		choice[b]++
	}
}

// solveSquare solves the augmented system a (M rows of M coefficients and
// a right-hand side) into y by Gaussian elimination with partial
// pivoting, reporting false when it is singular. It overwrites a.
func solveSquare(a [][]float64, y []float64) bool {
	m := len(a)
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if math.Abs(a[p][c]) < 1e-12 {
			return false
		}
		a[c], a[p] = a[p], a[c]
		for r := c + 1; r < m; r++ {
			f := a[r][c] / a[c][c]
			for j := c; j <= m; j++ {
				a[r][j] -= f * a[c][j]
			}
		}
	}
	for c := m - 1; c >= 0; c-- {
		v := a[c][m]
		for j := c + 1; j < m; j++ {
			v -= a[c][j] * y[j]
		}
		y[c] = v / a[c][c]
	}
	return true
}

type exactCase struct {
	name  string
	g     *dag.Graph
	rates []float64 // base offered load; each step scales it
	yMax  float64
	// learn, when set, moves every LearnedLinear's k before a step.
	learn func(rng *stats.RNG) error
}

// exactCases returns every built-in workload graph, theorem2's learned
// WordCount graph, and random layered graphs with at most maxEdges
// operator out-edges, without and with MinRate joins; the graphs with
// joins have at most maxJoinOps operators. The joins have 2–3 inputs, fed
// by sources in some graphs and by operators in others.
func exactCases(t *testing.T, maxEdges, maxJoinOps int) []exactCase {
	t.Helper()
	specs, err := workload.All()
	if err != nil {
		t.Fatal(err)
	}
	var cases []exactCase
	for _, s := range specs {
		cases = append(cases, exactCase{name: s.Name, g: s.Graph, rates: s.HighRates, yMax: s.YMax})
	}
	wc, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	learned, _, err := workload.LearnedWordCount(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, exactCase{name: "theorem2", g: learned, rates: wc.HighRates, yMax: wc.YMax,
		learn: func(rng *stats.RNG) error {
			for _, id := range learned.Operators() {
				for _, ei := range learned.SuccEdgeIDs(id) {
					if err := learned.HByID(ei).(*dag.LearnedLinear).ObserveRates(1, rng.Uniform(0.5, 3)); err != nil {
						return err
					}
				}
			}
			return nil
		}})
	// random adds n graphs from gen, then more until done, called on
	// each graph added, reports true.
	random := func(prefix string, seed int64, n, maxOps int, yMax float64, gen func(*stats.RNG) (*dag.Graph, error), done func(*dag.Graph) bool) {
		rng := stats.NewRNG(seed)
		complete := false
		for found, draws := 0, 0; found < n || !complete; draws++ {
			if draws == 10000 {
				t.Fatalf("%s: no graph within the limits completes the cases", prefix)
			}
			g, err := gen(rng)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumOperators() > maxOps || operatorEdges(g) > maxEdges {
				continue
			}
			rates := make([]float64, g.NumSources())
			for j := range rates {
				rates[j] = rng.Uniform(50, 500)
			}
			cases = append(cases, exactCase{name: fmt.Sprintf("%s-%d", prefix, found), g: g, rates: rates, yMax: yMax})
			complete = done(g)
			found++
		}
	}
	// No graph has more operators than operator out-edges.
	random("random", 61, 8, maxEdges, 2000, dagtest.RandomLayeredGraph, func(*dag.Graph) bool { return true })
	var fromSource, fromOperator int
	// A YMax near the flows leaves capacity bounds that bind, so a join's
	// demand can sit above its flow at the optimum.
	random("join", 64, 8, maxJoinOps, 1000, dagtest.RandomJoinGraph, func(g *dag.Graph) bool {
		for _, id := range g.Operators() {
			preds := g.PredEdgeIDs(id)
			for _, ei := range g.SuccEdgeIDs(id) {
				if _, ok := g.HByID(ei).(dag.MinRate); !ok {
					continue
				}
				if g.KindOf(g.EdgeByID(preds[0]).From) == dag.Source {
					fromSource++
				} else {
					fromOperator++
				}
			}
		}
		return fromSource > 0 && fromOperator > 0
	})
	return cases
}

func operatorEdges(g *dag.Graph) int {
	n := 0
	for _, id := range g.Operators() {
		n += len(g.SuccEdgeIDs(id))
	}
	return n
}

// driveDuals sets λ for the next step: "zero" keeps it at 0, "fixed" draws
// it once, around economyWeight, "high" draws it once from [0, 2], where
// throttling an operator can pay (a unit of flow into a λ > 1 operator
// costs more than it adds), and "moving" applies a dual update on random
// violations before every step.
func driveDuals(t *testing.T, o *Optimizer, rng *stats.RNG, duals string, step int) {
	t.Helper()
	switch duals {
	case "fixed", "high":
		hi := 4 * economyWeight
		if duals == "high" {
			hi = 2
		}
		if step == 0 {
			for i := range o.lambda {
				o.lambda[i] = rng.Uniform(0, hi)
			}
		}
	case "moving":
		viol := make([]float64, len(o.lambda))
		for i := range viol {
			viol[i] = o.cfg.YMax * rng.Uniform(-0.1, 0.4)
		}
		if err := o.ObserveViolations(viol); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExactSolveMatchesVertexEnumeration: on the workload graphs, the
// learned WordCount graph and small random layered graphs with and without
// joins, with λ zero, fixed, high and moving, the exact solve's value equals the
// best vertex of the arrangement, and Step never runs the iterative loop
// (its iterate scratch stays untouched).
func TestExactSolveMatchesVertexEnumeration(t *testing.T) {
	joinOps := 4
	if raceEnabled {
		joinOps = 3 // a 4-operator join graph's oracle is ~1 s a call under -race
	}
	for _, c := range exactCases(t, 6, joinOps) {
		steps := 4
		if c.g.NumOperators() > 4 {
			if raceEnabled {
				continue // the oracle is ~0.5 s a call on Yahoo without -race
			}
			steps = 2
		}
		for _, duals := range []string{"zero", "fixed", "high", "moving"} {
			o, err := New(c.g, Config{YMax: c.yMax})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(62)
			rates := make([]float64, len(c.rates))
			for step := 0; step < steps; step++ {
				driveDuals(t, o, rng, duals, step)
				if c.learn != nil {
					if err := c.learn(rng); err != nil {
						t.Fatal(err)
					}
				}
				for i, r := range c.rates {
					rates[i] = r * rng.Uniform(0.3, 1.7)
				}
				y, err := o.exact.solve(o, rates)
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.regularizedLagrangian(rates, y)
				if err != nil {
					t.Fatal(err)
				}
				want := vertexMax(t, c.g, rates, o.lambda, c.yMax)
				if math.Abs(got-want) > 1e-7*c.yMax {
					t.Fatalf("%s/%s step %d: λ = %v: exact value %v at y = %v, vertex maximum %v", c.name, duals, step, o.lambda, got, y, want)
				}
				if _, err := o.Step(rates); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range o.y {
				if v != 0 {
					t.Fatalf("%s/%s: Step ran the iterative solve", c.name, duals)
				}
			}
		}
	}
}

// TestExactSolveBeatsIterative: at every step, with λ moving (and on the
// learned WordCount graph k too), the exact solve is worth at least the
// iterative solve's best iterate from the same warm start, on the
// workload graphs and on random layered graphs of any size, with and
// without joins.
func TestExactSolveBeatsIterative(t *testing.T) {
	gained := map[string]int{}
	for _, c := range exactCases(t, 64, 64) {
		o, err := New(c.g, Config{YMax: c.yMax})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(63)
		rates := make([]float64, len(c.rates))
		for step := 0; step < 40; step++ {
			driveDuals(t, o, rng, "moving", step)
			if c.learn != nil {
				if err := c.learn(rng); err != nil {
					t.Fatal(err)
				}
			}
			for i, r := range c.rates {
				rates[i] = r * rng.Uniform(0.3, 1.7)
			}
			iter, err := o.maximizeLagrangian(rates)
			if err != nil {
				t.Fatal(err)
			}
			iterL, err := o.regularizedLagrangian(rates, iter)
			if err != nil {
				t.Fatal(err)
			}
			y, err := o.exact.solve(o, rates)
			if err != nil {
				t.Fatal(err)
			}
			exactL, err := o.regularizedLagrangian(rates, y)
			if err != nil {
				t.Fatal(err)
			}
			if exactL < iterL-1e-9*c.yMax {
				t.Fatalf("%s step %d: exact value %v below the iterative best %v", c.name, step, exactL, iterL)
			}
			if exactL > iterL+1e-9*c.yMax {
				gained[c.name]++
			}
			if _, err := o.Step(rates); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("steps where the exact solve beat the iterative one: %v", gained)
	if len(gained) == 0 {
		t.Error("the exact solve never beat the iterative one")
	}
}

// TestBuiltInGraphsSolveExactly: every built-in workload graph and
// theorem2's learned WordCount graph is piecewise linear, so its
// optimizer solves Eq. 14 exactly and never runs the ascent.
func TestBuiltInGraphsSolveExactly(t *testing.T) {
	specs, err := workload.All()
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*dag.Graph{}
	for _, s := range specs {
		graphs[s.Name] = s.Graph
	}
	if graphs["theorem2"], _, err = workload.LearnedWordCount(0.5); err != nil {
		t.Fatal(err)
	}
	for name, g := range graphs {
		o, err := New(g, Config{YMax: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if o.exact == nil {
			t.Errorf("%s: no exact solver", name)
		}
	}
}

// TestSingleOperatorClosedForm: on source → op → sink at rate r the
// objective is min(y, r) − λ·(r − y) − w·y. Its slope is 1 + λ − w below r
// and λ − w above, so the argmax is YMax when λ > w and r when λ < w — the
// duals, not the solve, are what lift a target above the headroom floor
// r·headroomFactor.
func TestSingleOperatorClosedForm(t *testing.T) {
	const yMax, r = 1000.0, 300.0
	for _, c := range []struct {
		lambda, before, after float64
	}{
		{0, r, r * headroomFactor},
		{economyWeight / 2, r, r * headroomFactor},
		{2 * economyWeight, yMax, yMax},
		{1, yMax, yMax},
	} {
		o, err := New(singleOpChain(t), Config{YMax: yMax})
		if err != nil {
			t.Fatal(err)
		}
		o.lambda[0] = c.lambda
		y, err := o.exact.solve(o, []float64{r})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(y[0]-c.before) > 1e-9*yMax {
			t.Errorf("λ = %v: solve gives %v, want %v", c.lambda, y[0], c.before)
		}
		if y, err = o.Step([]float64{r}); err != nil {
			t.Fatal(err)
		}
		if math.Abs(y[0]-c.after) > 1e-9*yMax {
			t.Errorf("λ = %v: Step gives %v, want %v", c.lambda, y[0], c.after)
		}
	}
}

// TestWarmStepAllocations: a warm Step on the Yahoo graph allocates
// nothing. The target it returns is the optimizer's own, and the exact
// solve reuses its program's storage.
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
	}); n != 0 {
		t.Errorf("warm Step allocates %v times, want 0", n)
	}
}

// TestNonPureObjectiveDoesNotAllocate: the objective the ascent and the
// OGD step read runs an edge function that is not a Linear (here the Join
// workload's MinRate) through its interface in the reverse sweep, every
// call, without allocating.
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

// benchStepMovingDuals is one production-shaped level-1 slot: λ moves on
// the violations of the last target realized at 90% before every Step, as
// the controller's dual update moves it. ascent drops the exact solver,
// so Step runs the projected ascent instead.
func benchStepMovingDuals(b *testing.B, g *dag.Graph, rates []float64, yMax float64, ascent bool) {
	o, err := New(g, Config{YMax: yMax})
	if err != nil {
		b.Fatal(err)
	}
	if ascent {
		o.exact = nil
	}
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

// BenchmarkSaddlePointStepYahoo is one level-1 slot on the Yahoo graph
// with λ moving. (BenchmarkSaddlePointStep keeps λ at 0.)
func BenchmarkSaddlePointStepYahoo(b *testing.B) {
	spec, err := workload.Yahoo()
	if err != nil {
		b.Fatal(err)
	}
	benchStepMovingDuals(b, spec.Graph, spec.HighRates, spec.YMax, false)
}

// BenchmarkSaddlePointStepWorkloads is one level-1 slot with λ moving on
// every built-in workload, each solved exactly.
func BenchmarkSaddlePointStepWorkloads(b *testing.B) {
	specs, err := workload.All()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range specs {
		b.Run(spec.Name, func(b *testing.B) { benchStepMovingDuals(b, spec.Graph, spec.HighRates, spec.YMax, false) })
	}
}

// BenchmarkSaddlePointStepChain64 is one level-1 slot with λ moving on a
// chain of 64 unit-selectivity operators, the largest graph the exact
// solve takes (dag.Graph.PiecewiseLinear), through the exact solve and
// through the projected ascent: the cost the 64-edge rule bounds.
func BenchmarkSaddlePointStepChain64(b *testing.B) {
	bld := dag.NewBuilder()
	nodes := []dag.NodeID{bld.Source("source")}
	hs := []dag.ThroughputFunc{nil}
	for i := 0; i < 64; i++ {
		nodes = append(nodes, bld.Operator(fmt.Sprintf("op-%d", i)))
		hs = append(hs, dag.Selectivity(1))
	}
	nodes = append(nodes, bld.Sink("sink"))
	if err := bld.Chain(nodes, hs); err != nil {
		b.Fatal(err)
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	if !g.PiecewiseLinear() {
		b.Fatal("the 64-operator chain is not piecewise linear")
	}
	rates := []float64{10000}
	b.Run("exact", func(b *testing.B) { benchStepMovingDuals(b, g, rates, 40000, false) })
	b.Run("ascent", func(b *testing.B) { benchStepMovingDuals(b, g, rates, 40000, true) })
}

// TestJoinGraphIgnoresCallerEdits: the join workload's graph built by
// hand, with the caller keeping its MinRate, evaluates and steps exactly
// as workload.Join's graph after the caller overwrites the MinRate's K:
// Build copied it, so neither the flows nor the exact solver's LP rows
// alias the caller's slice.
func TestJoinGraphIgnoresCallerEdits(t *testing.T) {
	spec, err := workload.Join()
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder()
	bids := b.Source("bids")
	auctions := b.Source("auctions")
	jn := b.Operator("join")
	snk := b.Sink("sink")
	b.Edge(bids, jn, nil, 1)
	b.Edge(auctions, jn, nil, 1)
	mr, err := dag.NewMinRate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(jn, snk, mr, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mr.K[0], mr.K[1] = 0.25, 4

	ref, err := New(spec.Graph, Config{YMax: spec.YMax})
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(g, Config{YMax: spec.YMax})
	if err != nil {
		t.Fatal(err)
	}
	rates := spec.HighRates
	for step := 0; step < 4; step++ {
		want, err := ref.Step(rates)
		if err != nil {
			t.Fatal(err)
		}
		y, err := got.Step(rates)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(y) != fmt.Sprint(want) {
			t.Fatalf("step %d: Step = %v, want %v", step, y, want)
		}
		wantRep, err := spec.Graph.Evaluate(rates, want)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Evaluate(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Throughput != wantRep.Throughput || fmt.Sprint(rep.Demand) != fmt.Sprint(wantRep.Demand) {
			t.Fatalf("step %d: Evaluate = %v %v, want %v %v", step, rep.Throughput, rep.Demand, wantRep.Throughput, wantRep.Demand)
		}
		// Realize 60% of the target so the duals move before the next step.
		viol := make([]float64, len(y))
		for i := range viol {
			viol[i] = rep.Demand[i] - 0.6*y[i]
		}
		if err := ref.ObserveViolations(viol); err != nil {
			t.Fatal(err)
		}
		if err := got.ObserveViolations(viol); err != nil {
			t.Fatal(err)
		}
	}
}
