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

// vertexMax is the brute-force oracle for Eq. 14 on a pure graph: the
// largest L(y, λ) − w·Σy over every vertex of every branch pattern's cell.
// Within a pattern each flow is an affine function of y, so the cell is
// cut out of the box [0, YMax]^M by one hyperplane per operator out-edge,
// α·y_tail = k·e; a linear function's maximum over a cell sits where M
// independent box faces or edge hyperplanes meet. It solves every such
// M×M system, keeps the solutions inside the box and scores each one with
// the forward sweep. Cost grows as 2^E·C(2M+E, M), so it is for small
// graphs only.
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
	e := len(opEdges)
	srcIdx := map[dag.NodeID]int{}
	for i, id := range g.Sources() {
		srcIdx[id] = i
	}
	// Hyperplanes h·y = b: the box faces first, then one per edge.
	planes := make([][]float64, 2*m+e)
	rhs := make([]float64, 2*m+e)
	for i := 0; i < m; i++ {
		planes[i] = make([]float64, m)
		planes[i][i] = 1
		planes[m+i] = make([]float64, m)
		planes[m+i][i] = 1
		rhs[m+i] = yMax
	}
	var ws dag.Workspace
	best := math.Inf(-1)
	y := make([]float64, m)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1)
	}
	subset := make([]int, m)
	for pattern := 0; pattern < 1<<e; pattern++ {
		flows := make([]affine, g.NumEdges())
		for _, id := range g.Sources() {
			for _, ei := range g.SuccEdgeIDs(id) {
				flows[ei] = affine{c: make([]float64, m), k: g.AlphaByID(ei) * rates[srcIdx[id]]}
			}
		}
		for b, ei := range opEdges {
			from := g.EdgeByID(ei).From
			k := g.HByID(ei).(dag.Linear).K
			want := affine{c: make([]float64, m)}
			for p, pe := range g.PredEdgeIDs(from) {
				for i, v := range flows[pe].c {
					want.c[i] += k[p] * v
				}
				want.k += k[p] * flows[pe].k
			}
			share := affine{c: make([]float64, m)}
			share.c[g.OperatorIndex(from)] = g.AlphaByID(ei)
			plane := make([]float64, m)
			for i := range plane {
				plane[i] = share.c[i] - want.c[i]
			}
			planes[2*m+b], rhs[2*m+b] = plane, want.k
			if pattern&(1<<b) != 0 {
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
	}
	return best
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

type pureCase struct {
	name  string
	g     *dag.Graph
	rates []float64 // base offered load; each step scales it
	yMax  float64
}

// pureCases returns the pure workload graphs and random layered graphs
// with at most maxEdges operator out-edges.
func pureCases(t *testing.T, maxEdges int) []pureCase {
	t.Helper()
	specs, err := workload.All()
	if err != nil {
		t.Fatal(err)
	}
	var cases []pureCase
	for _, s := range specs {
		if s.Graph.Pure() {
			cases = append(cases, pureCase{s.Name, s.Graph, s.HighRates, s.YMax})
		} else if s.Name != "join" {
			t.Fatalf("workload %s is not pure", s.Name)
		}
	}
	rng := stats.NewRNG(61)
	for len(cases) < 13 {
		g, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		if operatorEdges(g) > maxEdges {
			continue
		}
		rates := make([]float64, g.NumSources())
		for j := range rates {
			rates[j] = rng.Uniform(50, 500)
		}
		cases = append(cases, pureCase{fmt.Sprintf("random-%d", len(cases)), g, rates, 2000})
	}
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
// it once, around economyWeight, and "moving" applies a dual update on
// random violations before every step.
func driveDuals(t *testing.T, o *Optimizer, rng *stats.RNG, duals string, step int) {
	t.Helper()
	switch duals {
	case "fixed":
		if step == 0 {
			for i := range o.lambda {
				o.lambda[i] = rng.Uniform(0, 4*economyWeight)
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

// TestExactSolveMatchesVertexEnumeration: on the pure workload graphs and
// on small random layered graphs, with λ zero, fixed and moving, the exact
// solve's value equals the best vertex of the arrangement, and Step never
// runs the iterative loop (its iterate scratch stays untouched).
func TestExactSolveMatchesVertexEnumeration(t *testing.T) {
	for _, c := range pureCases(t, 6) {
		steps := 4
		if c.g.NumOperators() > 4 {
			if raceEnabled {
				continue // the oracle is ~0.5 s a call on Yahoo without -race
			}
			steps = 2
		}
		for _, duals := range []string{"zero", "fixed", "moving"} {
			o, err := New(c.g, Config{YMax: c.yMax})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(62)
			rates := make([]float64, len(c.rates))
			for step := 0; step < steps; step++ {
				driveDuals(t, o, rng, duals, step)
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

// TestExactSolveBeatsIterative: at every step, with λ moving, the exact
// solve is worth at least the iterative solve's best iterate from the same
// warm start, on the pure workload graphs and on random layered graphs of
// any size.
func TestExactSolveBeatsIterative(t *testing.T) {
	var gained int
	for _, c := range pureCases(t, 64) {
		o, err := New(c.g, Config{YMax: c.yMax})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(63)
		rates := make([]float64, len(c.rates))
		for step := 0; step < 40; step++ {
			driveDuals(t, o, rng, "moving", step)
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
				gained++
			}
			if _, err := o.Step(rates); err != nil {
				t.Fatal(err)
			}
		}
	}
	if gained == 0 {
		t.Error("the exact solve never beat the iterative one")
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

// TestWarmStepAllocations: a warm Step on the Yahoo graph allocates only
// the target it returns; the exact solve reuses its program's storage.
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
}

// TestNonPureObjectiveDoesNotAllocate: graphs that are not pure (here the
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

// benchStepMovingDuals is one production-shaped level-1 slot: λ moves on
// the violations of the last target realized at 90% before every Step, as
// the controller's dual update moves it.
func benchStepMovingDuals(b *testing.B, spec *workload.Spec) {
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

// BenchmarkSaddlePointStepYahoo is one level-1 slot on the Yahoo graph
// with λ moving. (BenchmarkSaddlePointStep keeps λ at 0.)
func BenchmarkSaddlePointStepYahoo(b *testing.B) {
	spec, err := workload.Yahoo()
	if err != nil {
		b.Fatal(err)
	}
	benchStepMovingDuals(b, spec)
}

// BenchmarkSaddlePointStepWorkloads is one level-1 slot with λ moving on
// every built-in workload; join is the one graph that is not pure.
func BenchmarkSaddlePointStepWorkloads(b *testing.B) {
	specs, err := workload.All()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range specs {
		b.Run(spec.Name, func(b *testing.B) { benchStepMovingDuals(b, spec) })
	}
}
