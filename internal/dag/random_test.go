package dag_test

import (
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/stats"
)

// randomLayeredGraph delegates to the shared dagtest generator.
func randomLayeredGraph(t testing.TB, rng *stats.RNG) *dag.Graph {
	t.Helper()
	g, err := dagtest.RandomLayeredGraph(rng)
	if err != nil {
		t.Fatalf("random graph invalid: %v", err)
	}
	return g
}

func TestRandomGraphsEvaluateCleanly(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 60; trial++ {
		g := randomLayeredGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		y := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = rng.Uniform(1, 5000)
		}
		rep, err := g.Evaluate(rates, y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Throughput < 0 || math.IsNaN(rep.Throughput) || math.IsInf(rep.Throughput, 0) {
			t.Fatalf("trial %d: throughput %v", trial, rep.Throughput)
		}
		for i := range y {
			if rep.Output[i] > y[i]+1e-9 {
				t.Fatalf("trial %d: operator %d emitted %v above capacity %v", trial, i, rep.Output[i], y[i])
			}
			if rep.Output[i] > rep.Demand[i]+1e-9 {
				t.Fatalf("trial %d: operator %d emitted %v above demand %v", trial, i, rep.Output[i], rep.Demand[i])
			}
		}
	}
}

func TestRandomGraphsMonotoneInCapacity(t *testing.T) {
	rng := stats.NewRNG(32)
	for trial := 0; trial < 40; trial++ {
		g := randomLayeredGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		y := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = rng.Uniform(1, 2000)
		}
		base, err := g.Throughput(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		// Raising any single capacity must never decrease throughput.
		for i := range y {
			up := append([]float64(nil), y...)
			up[i] *= 1.5
			f, err := g.Throughput(rates, up)
			if err != nil {
				t.Fatal(err)
			}
			if f < base-1e-9 {
				t.Fatalf("trial %d: raising y[%d] decreased throughput %v → %v", trial, i, base, f)
			}
		}
	}
}

func TestRandomGraphsConcaveAlongRays(t *testing.T) {
	rng := stats.NewRNG(33)
	for trial := 0; trial < 40; trial++ {
		g := randomLayeredGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		lo := make([]float64, g.NumOperators())
		hi := make([]float64, g.NumOperators())
		mid := make([]float64, g.NumOperators())
		for i := range lo {
			lo[i] = rng.Uniform(1, 1000)
			hi[i] = lo[i] + rng.Uniform(1, 2000)
			mid[i] = (lo[i] + hi[i]) / 2
		}
		fLo, err := g.Throughput(rates, lo)
		if err != nil {
			t.Fatal(err)
		}
		fHi, err := g.Throughput(rates, hi)
		if err != nil {
			t.Fatal(err)
		}
		fMid, err := g.Throughput(rates, mid)
		if err != nil {
			t.Fatal(err)
		}
		if fMid < (fLo+fHi)/2-1e-6 {
			t.Fatalf("trial %d: f not concave along ray: f(mid)=%v < avg(%v, %v)", trial, fMid, fLo, fHi)
		}
	}
}

func TestRandomGraphsGradientNonNegativeAndConsistent(t *testing.T) {
	rng := stats.NewRNG(34)
	for trial := 0; trial < 40; trial++ {
		g := randomLayeredGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		y := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = rng.Uniform(1, 2000)
		}
		val, grad, err := g.Gradient(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := g.Throughput(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(val-direct) > 1e-9*(1+direct) {
			t.Fatalf("trial %d: Gradient value %v differs from Evaluate %v", trial, val, direct)
		}
		for i, gi := range grad {
			if gi < 0 {
				t.Fatalf("trial %d: negative subgradient %v for y[%d] of a monotone function", trial, gi, i)
			}
			if math.IsNaN(gi) || math.IsInf(gi, 0) {
				t.Fatalf("trial %d: non-finite gradient %v", trial, gi)
			}
		}
	}
}

func TestRandomGraphsLagrangianReducesToThroughputAtZeroDuals(t *testing.T) {
	rng := stats.NewRNG(35)
	for trial := 0; trial < 20; trial++ {
		g := randomLayeredGraph(t, rng)
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		y := make([]float64, g.NumOperators())
		lambda := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = rng.Uniform(1, 2000)
		}
		l, _, err := g.LagrangianGradient(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.Throughput(rates, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l-f) > 1e-9*(1+f) {
			t.Fatalf("trial %d: L(y, 0) = %v ≠ f(y) = %v", trial, l, f)
		}
	}
}

// TestLagrangianGradientWorkspaceReuse pins the workspace borrowing
// contract: one Workspace reused across graphs of different sizes gives
// values and gradients bit-equal to a fresh workspace per call.
func TestLagrangianGradientWorkspaceReuse(t *testing.T) {
	rng := stats.NewRNG(36)
	ws := new(dag.Workspace)
	for trial := 0; trial < 40; trial++ {
		g := randomLayeredGraph(t, rng)
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
		wantL, wantGrad, err := g.LagrangianGradient(new(dag.Workspace), rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		gotL, gotGrad, err := g.LagrangianGradient(ws, rates, y, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotL) != math.Float64bits(wantL) {
			t.Fatalf("trial %d: reused workspace L = %v, fresh %v", trial, gotL, wantL)
		}
		for i := range wantGrad {
			if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
				t.Fatalf("trial %d: reused workspace ∂L/∂y[%d] = %v, fresh %v", trial, i, gotGrad[i], wantGrad[i])
			}
		}
	}
}

func TestLagrangianGradientWarmDoesNotAllocate(t *testing.T) {
	g := randomLayeredGraph(t, stats.NewRNG(37))
	rates := make([]float64, g.NumSources())
	y := make([]float64, g.NumOperators())
	lambda := make([]float64, g.NumOperators())
	for i := range rates {
		rates[i] = 100
	}
	for i := range y {
		y[i] = 50
		lambda[i] = 0.5
	}
	ws := new(dag.Workspace)
	if _, _, err := g.LagrangianGradient(ws, rates, y, lambda); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := g.LagrangianGradient(ws, rates, y, lambda); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm LagrangianGradient allocates %v times per call", n)
	}
}
