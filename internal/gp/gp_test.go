package gp

import (
	"math"
	"testing"
	"testing/quick"

	"dragster/internal/stats"
)

func mustSE(t testing.TB, l, v float64) SquaredExponential {
	t.Helper()
	k, err := NewSquaredExponential(l, v)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mustRegressor(t testing.TB, k Kernel, noise float64) *Regressor {
	t.Helper()
	r, err := NewRegressor(k, noise, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewSquaredExponential(0, 1); err == nil {
		t.Error("SE with zero length scale accepted")
	}
	if _, err := NewSquaredExponential(1, -1); err == nil {
		t.Error("SE with negative variance accepted")
	}
}

func TestKernelBasicProperties(t *testing.T) {
	ard, err := NewARDSquaredExponential([]float64{2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{mustSE(t, 2, 3), ard} {
		x := []float64{1, 2}
		y := []float64{3, -1}
		// Symmetry.
		if k.Eval(x, y) != k.Eval(y, x) {
			t.Errorf("%T not symmetric", k)
		}
		// Self-covariance equals process variance.
		if got := k.Eval(x, x); math.Abs(got-3) > 1e-12 {
			t.Errorf("%T k(x,x) = %v, want 3", k, got)
		}
		// Decay with distance.
		far := []float64{100, 100}
		if k.Eval(x, far) >= k.Eval(x, y) {
			t.Errorf("%T does not decay with distance", k)
		}
	}
}

func TestKernelDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kernel dim mismatch did not panic")
		}
	}()
	mustSE(t, 1, 1).Eval([]float64{1}, []float64{1, 2})
}

func TestRegressorValidation(t *testing.T) {
	if _, err := NewRegressor(nil, 1, nil); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewRegressor(mustSE(t, 1, 1), 0, nil); err == nil {
		t.Error("zero noise accepted")
	}
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	if err := r.Observe(nil, 1); err == nil {
		t.Error("empty point accepted")
	}
	if err := r.Observe([]float64{1}, math.NaN()); err == nil {
		t.Error("NaN observation accepted")
	}
	if err := r.Observe([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe([]float64{1, 2}, 1); err == nil {
		t.Error("dimension change accepted")
	}
}

func TestPosteriorEmptyReturnsError(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	if _, _, err := r.Posterior([]float64{1}); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestPosteriorInterpolatesNearNoiselessData(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1.5, 4), 1e-6)
	target := func(x float64) float64 { return 3 + 2*math.Tanh(x/2) }
	for _, x := range []float64{-4, -2, 0, 2, 4} {
		if err := r.Observe([]float64{x}, target(x)); err != nil {
			t.Fatal(err)
		}
	}
	// At the training points the posterior mean should reproduce the data
	// and the variance should collapse towards the noise level.
	for _, x := range []float64{-4, 0, 4} {
		mu, s2, err := r.Posterior([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mu-target(x)) > 1e-3 {
			t.Errorf("μ(%v) = %v, want %v", x, mu, target(x))
		}
		if s2 > 1e-3 {
			t.Errorf("σ²(%v) = %v, want ≈0", x, s2)
		}
	}
	// Between training points interpolation should be reasonable.
	mu, _, err := r.Posterior([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-target(1)) > 0.15 {
		t.Errorf("interpolated μ(1) = %v, want ≈%v", mu, target(1))
	}
}

func TestPosteriorVarianceGrowsAwayFromData(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 2), 0.01)
	if err := r.Observe([]float64{0}, 1); err != nil {
		t.Fatal(err)
	}
	_, near, err := r.Posterior([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	_, far, err := r.Posterior([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Errorf("variance near data (%v) should be below variance far away (%v)", near, far)
	}
	// Far from all data, variance approaches the prior variance.
	if math.Abs(far-2) > 1e-6 {
		t.Errorf("far-field variance = %v, want ≈2", far)
	}
}

func TestPosteriorMeanRevertsToEmpiricalMean(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.01)
	for _, p := range [][2]float64{{0, 10}, {1, 12}, {2, 14}} {
		if err := r.Observe([]float64{p[0]}, p[1]); err != nil {
			t.Fatal(err)
		}
	}
	mu, _, err := r.Posterior([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-12) > 1e-6 {
		t.Errorf("far-field mean = %v, want empirical mean 12", mu)
	}
}

func TestVarianceShrinksWithRepeatedObservation(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.25)
	x := []float64{3}
	var prev = math.Inf(1)
	rng := stats.NewRNG(5)
	for i := 0; i < 6; i++ {
		if err := r.Observe(x, rng.Normal(5, 0.5)); err != nil {
			t.Fatal(err)
		}
		_, s2, err := r.Posterior(x)
		if err != nil {
			t.Fatal(err)
		}
		if s2 >= prev {
			t.Errorf("iteration %d: variance %v did not shrink from %v", i, s2, prev)
		}
		prev = s2
	}
}

func TestPosteriorBatchMatchesSingle(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 2, 1), 0.1)
	rng := stats.NewRNG(6)
	for i := 0; i < 8; i++ {
		if err := r.Observe([]float64{rng.Uniform(0, 10)}, rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	cands := [][]float64{{0}, {2.5}, {7}, {11}}
	mus, vars, err := r.PosteriorBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		mu, s2, err := r.Posterior(c)
		if err != nil {
			t.Fatal(err)
		}
		if mu != mus[i] || s2 != vars[i] {
			t.Errorf("batch[%d] = (%v, %v), single = (%v, %v)", i, mus[i], vars[i], mu, s2)
		}
	}
}

func TestInformationGainMonotone(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	prev := r.InformationGain()
	if prev != 0 {
		t.Fatalf("initial gain = %v", prev)
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 10; i++ {
		if err := r.Observe([]float64{rng.Uniform(0, 5)}, rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
		g := r.InformationGain()
		if g <= prev {
			t.Errorf("step %d: information gain %v not strictly increasing from %v", i, g, prev)
		}
		prev = g
	}
}

func TestLogMarginalLikelihoodPrefersTrueNoise(t *testing.T) {
	// Data generated with noise 0.1: the LML under σ²=0.01..1 should peak
	// near the generating value rather than at the extremes.
	rng := stats.NewRNG(8)
	xs := make([][]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		x := rng.Uniform(0, 10)
		xs[i] = []float64{x}
		ys[i] = math.Sin(x) + rng.Normal(0, math.Sqrt(0.1))
	}
	lml := func(noise float64) float64 {
		r := mustRegressor(t, mustSE(t, 1, 1), noise)
		for i := range xs {
			if err := r.Observe(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		v, err := r.LogMarginalLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	atTrue := lml(0.1)
	if atTrue <= lml(0.0005) {
		t.Error("LML at true noise should beat badly underestimated noise")
	}
	if atTrue <= lml(10) {
		t.Error("LML at true noise should beat badly overestimated noise")
	}
}

func TestObservationsReturnsCopies(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	if err := r.Observe([]float64{1}, 2); err != nil {
		t.Fatal(err)
	}
	xs, ys := r.Observations()
	xs[0][0] = 99
	ys[0] = 99
	xs2, ys2 := r.Observations()
	if xs2[0][0] != 1 || ys2[0] != 2 {
		t.Error("Observations leaked internal storage")
	}
}

func TestPosteriorVarianceNonNegativeProperty(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1.3, 2), 0.05)
	rng := stats.NewRNG(9)
	for i := 0; i < 15; i++ {
		if err := r.Observe([]float64{rng.Uniform(-5, 5), rng.Uniform(-5, 5)}, rng.Normal(0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		x := []float64{math.Mod(a, 10), math.Mod(b, 10)}
		_, s2, err := r.Posterior(x)
		if err != nil {
			return false
		}
		return s2 >= 0 && s2 <= 2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSEInformationGainBound(t *testing.T) {
	if SEInformationGainBound(1, 3) != 0 {
		t.Error("bound below T=2 should be 0")
	}
	if SEInformationGainBound(100, 1) <= SEInformationGainBound(10, 1) {
		t.Error("bound must grow with T")
	}
	if SEInformationGainBound(100, 3) <= SEInformationGainBound(100, 1) {
		t.Error("bound must grow with dimension")
	}
}

func BenchmarkPosterior50Obs(b *testing.B) {
	r := mustRegressor(b, mustSE(b, 1.5, 1), 0.1)
	rng := stats.NewRNG(10)
	for i := 0; i < 50; i++ {
		if err := r.Observe([]float64{rng.Uniform(0, 10)}, rng.Normal(0, 1)); err != nil {
			b.Fatal(err)
		}
	}
	x := []float64{5}
	if _, _, err := r.Posterior(x); err != nil { // force refit outside the loop
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Posterior(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkObserveRefit drives the Observe→Posterior cycle for nObs
// points. fromScratch dirties the fit before every Observe, forcing the
// pre-incremental full-refactorization path — the perf baseline the
// rank-1 Extend path is measured against (BENCH_gp.json tracks both).
func benchmarkObserveRefit(b *testing.B, nObs int, fromScratch bool) {
	rng := stats.NewRNG(12)
	pts := make([][]float64, nObs)
	vals := make([]float64, nObs)
	for j := range pts {
		pts[j] = []float64{rng.Uniform(0, 10)}
		vals[j] = rng.Normal(0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := mustRegressor(b, mustSE(b, 1.5, 1), 0.1)
		b.StartTimer()
		for j := range pts {
			if fromScratch {
				if err := r.SetKernel(r.Kernel()); err != nil {
					b.Fatal(err)
				}
			}
			if err := r.Observe(pts[j], vals[j]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := r.Posterior(pts[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkObserveRefit50(b *testing.B)  { benchmarkObserveRefit(b, 50, false) }
func BenchmarkObserveRefit200(b *testing.B) { benchmarkObserveRefit(b, 200, false) }

// BenchmarkObserveRefitFromScratch200 is the pre-change O(T⁴) reference
// path for the speedup ratio recorded in BENCH_gp.json.
func BenchmarkObserveRefitFromScratch200(b *testing.B) { benchmarkObserveRefit(b, 200, true) }

func BenchmarkMaximizeLML(b *testing.B) {
	rng := stats.NewRNG(14)
	r := mustRegressor(b, mustSE(b, 1, 1), 0.5)
	for i := 0; i < 40; i++ {
		x := rng.Uniform(0, 12)
		if err := r.Observe([]float64{x}, 20*math.Sin(x/3)+rng.Normal(0, 0.7)); err != nil {
			b.Fatal(err)
		}
	}
	grid, err := DefaultHyperGrid(12, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.MaximizeLML(grid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserveRefitCycle(b *testing.B) {
	rng := stats.NewRNG(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := mustRegressor(b, mustSE(b, 1.5, 1), 0.1)
		pts := make([][]float64, 25)
		vals := make([]float64, 25)
		for j := range pts {
			pts[j] = []float64{rng.Uniform(0, 10)}
			vals[j] = rng.Normal(0, 1)
		}
		b.StartTimer()
		for j := range pts {
			if err := r.Observe(pts[j], vals[j]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := r.Posterior(pts[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
