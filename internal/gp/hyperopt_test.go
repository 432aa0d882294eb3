package gp

import (
	"errors"
	"math"
	"testing"

	"dragster/internal/stats"
)

func TestSetKernelInvalidatesFit(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	if err := r.SetKernel(nil); err == nil {
		t.Error("nil kernel accepted")
	}
	if err := r.Observe([]float64{0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe([]float64{1}, 5); err != nil {
		t.Fatal(err)
	}
	muBefore, _, err := r.Posterior([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	// A much longer length scale pulls distant predictions toward the data.
	if err := r.SetKernel(mustSE(t, 10, 1)); err != nil {
		t.Fatal(err)
	}
	muAfter, _, err := r.Posterior([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if muBefore == muAfter {
		t.Error("kernel swap had no effect on the posterior")
	}
}

func TestDefaultHyperGrid(t *testing.T) {
	g, err := DefaultHyperGrid(9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LengthScales) == 0 || len(g.Variances) == 0 {
		t.Fatal("empty grid")
	}
	if g.LengthScales[0] <= 0 || g.LengthScales[len(g.LengthScales)-1] != 9 {
		t.Errorf("length scales = %v", g.LengthScales)
	}
	if _, err := DefaultHyperGrid(0, 1); err == nil {
		t.Error("zero diameter accepted")
	}
	if _, err := DefaultHyperGrid(1, -1); err == nil {
		t.Error("negative variance accepted")
	}
}

func TestMaximizeLMLRecoversSensibleScale(t *testing.T) {
	// Data drawn from a smooth function with characteristic scale ~3: the
	// LML search should prefer a length scale well above the smallest and
	// produce a better-fitting posterior than a deliberately bad kernel.
	rng := stats.NewRNG(11)
	target := func(x float64) float64 { return 50 * math.Sin(x/3) }
	r := mustRegressor(t, mustSE(t, 0.2, 1), 1) // bad initial kernel
	for i := 0; i < 25; i++ {
		x := rng.Uniform(0, 12)
		if err := r.Observe([]float64{x}, target(x)+rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	badLML, err := r.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := DefaultHyperGrid(12, 2500)
	if err != nil {
		t.Fatal(err)
	}
	ls, v, lml, err := r.MaximizeLML(grid)
	if err != nil {
		t.Fatal(err)
	}
	if lml <= badLML {
		t.Errorf("optimized LML %v not above initial %v", lml, badLML)
	}
	if ls <= grid.LengthScales[0] {
		t.Errorf("chosen length scale %v stuck at grid minimum", ls)
	}
	if v <= 0 {
		t.Errorf("variance %v", v)
	}
	// Interpolation quality must improve materially with the fitted kernel.
	var mae float64
	for x := 0.5; x < 12; x += 1.0 {
		mu, _, err := r.Posterior([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		mae += math.Abs(mu - target(x))
	}
	mae /= 12
	if mae > 5 {
		t.Errorf("post-fit MAE = %v, want < 5", mae)
	}
}

// TestMaximizeLMLRestoresKernelOnError: no error return may leave the
// regressor with a half-swapped kernel (the pre-parallel implementation
// mutated the live kernel per grid point and leaked the last candidate on
// early returns). Every failure path must leave the pre-call kernel and
// posterior intact.
func TestMaximizeLMLRestoresKernelOnError(t *testing.T) {
	orig := mustSE(t, 1.7, 2.3)
	r := mustRegressor(t, orig, 0.1)
	rng := stats.NewRNG(12)
	for i := 0; i < 5; i++ {
		if err := r.Observe([]float64{rng.Uniform(0, 5)}, rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	muBefore, varBefore, err := r.Posterior([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, grid HyperGrid) {
		t.Helper()
		if _, _, _, err := r.MaximizeLML(grid); err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if got := r.Kernel(); got != Kernel(orig) {
			t.Errorf("%s: kernel = %#v, want original %#v", name, got, orig)
		}
		mu, v, err := r.Posterior([]float64{2})
		if err != nil {
			t.Fatal(err)
		}
		if mu != muBefore || v != varBefore {
			t.Errorf("%s: posterior (%v, %v) drifted from (%v, %v)", name, mu, v, muBefore, varBefore)
		}
	}
	// Invalid hyperparameters midway through the grid (first point valid).
	check("invalid grid point", HyperGrid{LengthScales: []float64{1, -1}, Variances: []float64{1}})
	check("empty grid", HyperGrid{})
}

// TestMaximizeLMLDeterministicAcrossWorkerCounts: the grid argmax is
// reduced in grid order, so any worker pool size must select the exact
// same kernel with the exact same LML — this is what keeps seeded runs
// byte-identical with parallel hyperparameter search enabled.
func TestMaximizeLMLDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func() *Regressor {
		rng := stats.NewRNG(13)
		r := mustRegressor(t, mustSE(t, 0.3, 1), 0.5)
		for i := 0; i < 20; i++ {
			x := rng.Uniform(0, 12)
			if err := r.Observe([]float64{x}, 20*math.Sin(x/3)+rng.Normal(0, 0.7)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	grid, err := DefaultHyperGrid(12, 400)
	if err != nil {
		t.Fatal(err)
	}
	r1 := build()
	ls1, v1, lml1, err := r1.maximizeLML(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 32, 0} {
		r := build()
		ls, v, lml, err := r.maximizeLML(grid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ls != ls1 || v != v1 || lml != lml1 {
			t.Errorf("workers=%d: (ℓ, σ², lml) = (%v, %v, %v), want (%v, %v, %v) from serial",
				workers, ls, v, lml, ls1, v1, lml1)
		}
		if r.Kernel() != r1.Kernel() {
			t.Errorf("workers=%d: kernel %#v differs from serial %#v", workers, r.Kernel(), r1.Kernel())
		}
	}
}

// TestGridLMLMatchesPerPointFit: scoring the grid one length scale at a
// time, with each variance's Gram scaled from one shared exp table,
// gives every grid point the LML a from-scratch factorSystem,
// solveWeights and lmlFromFit under that point's kernel gives, bit for
// bit and at any worker count. Repeated points exercise the σ²/k_j
// diagonal, and 2-D rows the multi-dimensional distance.
func TestGridLMLMatchesPerPointFit(t *testing.T) {
	rng := stats.NewRNG(21)
	for _, dim := range []int{1, 2} {
		r := mustRegressor(t, mustSE(t, 1, 1), 0.3)
		for i := 0; i < 30; i++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = float64(rng.Intn(9))
			}
			if err := r.Observe(x, 10*math.Sin(x[0]/2)+rng.Normal(0, 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		grid, err := DefaultHyperGrid(8, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			lmls, feasible := r.gridLML(grid, workers)
			for li, ls := range grid.LengthScales {
				for vi, v := range grid.Variances {
					i := li*len(grid.Variances) + vi
					chol, ferr := factorSystem(r.xs, r.counts, mustSE(t, ls, v), r.noiseVar)
					if (ferr == nil) != feasible[i] {
						t.Fatalf("dim %d workers %d (ℓ=%v, σ²=%v): feasible %v, factorSystem err %v", dim, workers, ls, v, feasible[i], ferr)
					}
					if ferr != nil {
						continue
					}
					mean, alpha := solveWeights(nil, chol, r.counts, r.sums, r.ySum, r.n)
					want := lmlFromFit(r.counts, r.sums, mean, alpha, chol)
					if math.Float64bits(lmls[i]) != math.Float64bits(want) {
						t.Errorf("dim %d workers %d (ℓ=%v, σ²=%v): lml %v, per-point fit %v", dim, workers, ls, v, lmls[i], want)
					}
				}
			}
		}
	}
}

func TestMaximizeLMLTooFewPoints(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	grid, err := DefaultHyperGrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.MaximizeLML(grid); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("err = %v, want ErrTooFewPoints", err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Observe([]float64{float64(i)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := r.MaximizeLML(HyperGrid{}); err == nil {
		t.Error("empty grid accepted")
	}
}
