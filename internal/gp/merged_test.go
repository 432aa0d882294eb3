package gp

import (
	"math"
	"testing"

	"dragster/internal/linalg"
	"dragster/internal/stats"
)

// rawOracle is the textbook GP over every observation: the raw N×N Gram
// plus σ²I, factorized from scratch on each query, with no merging of
// repeated points. The merged regressor must reproduce it.
type rawOracle struct {
	kernel Kernel
	noise  float64
	xs     [][]float64
	ys     []float64
	gain   float64 // ½ Σ log(1 + σ⁻²·σ²_{t−1}(x_t))
}

// fit factorizes the raw system under kernel k and returns the factor,
// the centring mean and the weights α = (K+σ²I)⁻¹(y − mean).
func (o *rawOracle) fit(t *testing.T, k Kernel) (*linalg.Cholesky, float64, []float64) {
	t.Helper()
	n := len(o.xs)
	g := linalg.NewMatrix(n, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += o.ys[i]
		for j := 0; j < n; j++ {
			g.Set(i, j, k.Eval(o.xs[i], o.xs[j]))
		}
		g.Add(i, i, o.noise)
	}
	chol, err := linalg.NewCholesky(g)
	if err != nil {
		t.Fatalf("raw oracle: %v", err)
	}
	mean := sum / float64(n)
	r := make([]float64, n)
	for i, y := range o.ys {
		r[i] = y - mean
	}
	return chol, mean, chol.SolveVec(r)
}

func (o *rawOracle) posterior(t *testing.T, x []float64) (mu, variance float64) {
	t.Helper()
	chol, mean, alpha := o.fit(t, o.kernel)
	kx := make([]float64, len(o.xs))
	mu = mean
	for i, xi := range o.xs {
		kx[i] = o.kernel.Eval(xi, x)
		mu += kx[i] * alpha[i]
	}
	variance = o.kernel.Eval(x, x)
	for _, v := range chol.SolveLowerVec(kx) {
		variance -= v * v
	}
	return mu, math.Max(variance, 0)
}

// lml is log p(y | X, θ) over the raw observations under kernel k.
func (o *rawOracle) lml(t *testing.T, k Kernel) float64 {
	t.Helper()
	chol, mean, alpha := o.fit(t, k)
	var fit float64
	for i, y := range o.ys {
		fit += (y - mean) * alpha[i]
	}
	return -0.5*fit - 0.5*chol.LogDet() - 0.5*float64(len(o.ys))*math.Log(2*math.Pi)
}

func (o *rawOracle) observe(t *testing.T, x []float64, y float64) {
	t.Helper()
	kxx := o.kernel.Eval(x, x)
	if len(o.xs) == 0 {
		o.gain += 0.5 * math.Log(1+kxx/o.noise)
	} else {
		_, v := o.posterior(t, x)
		o.gain += 0.5 * math.Log(1+v/o.noise)
	}
	o.xs = append(o.xs, append([]float64(nil), x...))
	o.ys = append(o.ys, y)
}

// closeRel reports |a−b| ≤ tol·max(|a|, |b|, floor).
func closeRel(a, b, tol, floor float64) bool {
	return math.Abs(a-b) <= tol*math.Max(floor, math.Max(math.Abs(a), math.Abs(b)))
}

// requireMatchesOracle compares μ and σ² at every probe with the raw
// oracle to 1e-9 relative (σ² relative to the prior variance, since a
// well-observed point's variance is near zero).
func requireMatchesOracle(t *testing.T, r *Regressor, o *rawOracle, probes [][]float64, ctx string) {
	t.Helper()
	for _, p := range probes {
		mu, v, err := r.Posterior(p)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		wantMu, wantV := o.posterior(t, p)
		if !closeRel(mu, wantMu, 1e-9, 1) || !closeRel(v, wantV, 1e-9, o.kernel.Eval(p, p)) {
			t.Fatalf("%s at %v: merged (μ, σ²) = (%v, %v), raw (%v, %v)", ctx, p, mu, v, wantMu, wantV)
		}
	}
}

// TestMergedPosteriorMatchesRawOracle is the exactness contract of one
// row per configuration: under random observe sequences that mostly
// repeat grid points, a warm-start replay of the whole history into a
// fresh regressor, and MaximizeLML refits, the merged μ and σ² agree with
// the raw oracle over all N observations to 1e-9 relative, the
// information gain does too, and MaximizeLML picks the grid point that
// maximizes the raw likelihood.
func TestMergedPosteriorMatchesRawOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		dim := 1 + rng.Intn(2)
		point := func() []float64 {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Uniform(0, 6)
			}
			return x
		}
		grid := make([][]float64, 3+rng.Intn(5))
		for i := range grid {
			grid[i] = point()
		}
		probes := append([][]float64{point(), point()}, grid...)
		kernel := mustSE(t, rng.Uniform(0.8, 3), rng.Uniform(1, 4))
		noise := rng.Uniform(0.1, 0.5)
		r := mustRegressor(t, kernel, noise)
		o := &rawOracle{kernel: kernel, noise: noise}
		distinct := map[[2]float64]bool{}
		hyper, err := DefaultHyperGrid(6, 4)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 90; step++ {
			x := grid[rng.Intn(len(grid))]
			if rng.Float64() < 0.2 {
				x = point()
			}
			y := 10 + 3*math.Sin(x[0]) + rng.Normal(0, 0.5)
			if err := r.Observe(x, y); err != nil {
				t.Fatal(err)
			}
			o.observe(t, x, y)
			var key [2]float64
			copy(key[:], x)
			distinct[key] = true
			if r.Len() != step || r.Rows() != len(distinct) {
				t.Fatalf("seed %d step %d: Len %d, Rows %d; want %d, %d", seed, step, r.Len(), r.Rows(), step, len(distinct))
			}
			if !closeRel(r.InformationGain(), o.gain, 1e-9, 1) {
				t.Fatalf("seed %d step %d: information gain %v, raw %v", seed, step, r.InformationGain(), o.gain)
			}
			if step%30 == 0 {
				ls, v, _, err := r.MaximizeLML(hyper)
				if err != nil {
					t.Fatal(err)
				}
				bestLS, bestV, best := 0.0, 0.0, math.Inf(-1)
				for _, l := range hyper.LengthScales {
					for _, vv := range hyper.Variances {
						if lml := o.lml(t, mustSE(t, l, vv)); lml > best {
							bestLS, bestV, best = l, vv, lml
						}
					}
				}
				if ls != bestLS || v != bestV {
					t.Fatalf("seed %d step %d: MaximizeLML picked (%v, %v), raw likelihood (%v, %v)", seed, step, ls, v, bestLS, bestV)
				}
				o.kernel = r.Kernel()
			}
			if step%9 == 0 {
				requireMatchesOracle(t, r, o, probes, "incremental")
			}
		}
		// Warm start: the whole history replayed into a fresh regressor
		// before its first query.
		replay := mustRegressor(t, r.Kernel(), noise)
		for i, x := range o.xs {
			if err := replay.Observe(x, o.ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		requireMatchesOracle(t, replay, o, probes, "replay")
	}
}

// TestRowsMergeRepeatedConfigurations: Len counts observations, Rows
// counts distinct points, and Observations reports each row's point and
// mean target in first-seen order.
func TestRowsMergeRepeatedConfigurations(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	for _, o := range []struct{ x, y float64 }{{2, 1}, {5, 4}, {2, 3}, {2, 5}, {5, 6}} {
		if err := r.Observe([]float64{o.x}, o.y); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 5 || r.Rows() != 2 {
		t.Fatalf("Len %d, Rows %d; want 5, 2", r.Len(), r.Rows())
	}
	xs, means := r.Observations()
	if len(xs) != 2 || xs[0][0] != 2 || xs[1][0] != 5 || means[0] != 3 || means[1] != 5 {
		t.Fatalf("Observations = %v, %v; want points [2] [5] with means 3 and 5", xs, means)
	}
}

// TestRepeatedObserveAllocatesNothing pins the bounded-memory promise:
// once every grid point has a row, observing them again only rewrites a
// diagonal entry and allocates nothing.
func TestRepeatedObserveAllocatesNothing(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	rng := stats.NewRNG(17)
	grid := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	obs := func() {
		if err := r.Observe(grid[rng.Intn(len(grid))], rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Mean(grid[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		obs()
	}
	if allocs := testing.AllocsPerRun(50, obs); allocs != 0 {
		t.Fatalf("repeated Observe allocates %v times per op, want 0", allocs)
	}
	if r.Rows() != len(grid) {
		t.Fatalf("Rows = %d, want %d", r.Rows(), len(grid))
	}
}

// benchmarkObserveGrid times steady-state Observe plus one μ read after
// warm observations drawn from a fixed 24-point grid, as a controller
// draws them. The 1k/10k pair must be flat (within 1.2×, gated in CI via
// BENCH_gp.json): the rows, and so the per-round cost, are bounded by the
// grid, not the horizon.
func benchmarkObserveGrid(b *testing.B, warm int) {
	rng := stats.NewRNG(21)
	r := mustRegressor(b, mustSE(b, 1.5, 1), 0.1)
	grid := make([][]float64, 24)
	for i := range grid {
		grid[i] = []float64{float64(i) / 2}
	}
	obs := func() {
		x := grid[rng.Intn(len(grid))]
		if err := r.Observe(x, 20*math.Sin(x[0]/3)+rng.Normal(0, 0.7)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		obs()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs()
		if _, err := r.Mean(grid[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveGrid1k(b *testing.B)  { benchmarkObserveGrid(b, 1_000) }
func BenchmarkObserveGrid10k(b *testing.B) { benchmarkObserveGrid(b, 10_000) }
