package gp

import (
	"math"
	"testing"

	"dragster/internal/stats"
)

// exactRetained builds a fresh Regressor fed only r's retained
// observations, in retained order — the from-scratch reference the
// budgeted posterior must reproduce.
func exactRetained(t testing.TB, r *Regressor) *Regressor {
	t.Helper()
	ref := mustRegressor(t, r.Kernel(), r.noiseVar)
	xs, ys := r.Observations()
	for i := range xs {
		if err := ref.Observe(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// comparePosteriors pins mean/variance agreement between the budgeted
// regressor and the exact retained-set reference at tol over a probe grid.
func comparePosteriors(t *testing.T, budgeted, exact *Regressor, probes [][]float64, tol float64, ctx string) {
	t.Helper()
	for _, p := range probes {
		mu1, v1, err := budgeted.Posterior(p)
		if err != nil {
			t.Fatalf("%s: budgeted posterior: %v", ctx, err)
		}
		mu2, v2, err := exact.Posterior(p)
		if err != nil {
			t.Fatalf("%s: exact posterior: %v", ctx, err)
		}
		if math.Abs(mu1-mu2) > tol || math.Abs(v1-v2) > tol {
			t.Fatalf("%s: posterior diverged at %v: mean %v vs %v (Δ%g), var %v vs %v (Δ%g)",
				ctx, p, mu1, mu2, mu1-mu2, v1, v2, v1-v2)
		}
	}
}

// TestBudgetedPosteriorMatchesExactOracle is the headline property suite:
// across randomized evict/extend interleavings — random kernels,
// dimensions, budgets, mid-stream budget changes and
// hyperparameter refits — the budgeted posterior must match an exact
// from-scratch posterior over the retained set to 1e-9. (In practice the
// incremental path is bit-identical; the tolerance is the contract.)
func TestBudgetedPosteriorMatchesExactOracle(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 12; trial++ {
		dim := 1 + rng.Intn(3)
		kernel := mustSE(t, 0.5+2*rng.Float64(), 0.5+rng.Float64())
		noise := 0.01 + 0.1*rng.Float64()
		budget := 1 + rng.Intn(12)
		r := mustRegressor(t, kernel, noise)
		if err := r.SetObservationBudget(budget); err != nil {
			t.Fatal(err)
		}
		probes := make([][]float64, 5)
		for i := range probes {
			p := make([]float64, dim)
			for d := range p {
				p[d] = 4 * rng.Float64()
			}
			probes[i] = p
		}
		steps := 30 + rng.Intn(40)
		for step := 0; step < steps; step++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = 4 * rng.Float64()
			}
			if err := r.Observe(x, math.Sin(x[0])+0.1*rng.Normal(0, 1)); err != nil {
				t.Fatal(err)
			}
			if r.Len() > budget {
				t.Fatalf("trial %d step %d: Len %d exceeds budget %d", trial, step, r.Len(), budget)
			}
			// Occasional mid-stream perturbations: shrink the budget or
			// swap the kernel the way a hyperparameter refit would.
			if step == steps/2 && rng.Intn(2) == 0 {
				budget = 1 + budget/2
				if err := r.SetObservationBudget(budget); err != nil {
					t.Fatal(err)
				}
			}
			if step == steps/3 && rng.Intn(2) == 0 {
				kernel = mustSE(t, 0.5+2*rng.Float64(), 0.5+rng.Float64())
				r.SetKernel(kernel)
			}
			if step%7 == 0 || step == steps-1 {
				comparePosteriors(t, r, exactRetained(t, r), probes, 1e-9,
					"trial/step oracle")
			}
		}
		if want := uint64(steps - r.Len()); r.Evictions() != want {
			t.Fatalf("trial %d: Evictions() = %d, want %d", trial, r.Evictions(), want)
		}
	}
}

// TestBudgetEdgeCases covers the table-driven boundary behaviors the
// property suite is unlikely to isolate.
func TestBudgetEdgeCases(t *testing.T) {
	kernel := mustSE(t, 1, 1)
	obs := func(r *Regressor, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := r.Observe([]float64{float64(i)}, float64(i%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("budget one keeps exactly one", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		if err := r.SetObservationBudget(1); err != nil {
			t.Fatal(err)
		}
		obs(r, 5)
		if r.Len() != 1 {
			t.Fatalf("Len = %d, want 1", r.Len())
		}
		if _, _, err := r.Posterior([]float64{0.5}); err != nil {
			t.Fatalf("posterior with one point: %v", err)
		}
	})
	t.Run("budget at or above n evicts nothing", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		if err := r.SetObservationBudget(10); err != nil {
			t.Fatal(err)
		}
		obs(r, 10)
		if r.Len() != 10 || r.Evictions() != 0 {
			t.Fatalf("Len = %d, Evictions = %d, want 10, 0", r.Len(), r.Evictions())
		}
	})
	t.Run("zero budget is unlimited", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		if err := r.SetObservationBudget(0); err != nil {
			t.Fatal(err)
		}
		obs(r, 20)
		if r.Len() != 20 {
			t.Fatalf("Len = %d, want 20", r.Len())
		}
	})
	t.Run("negative budget rejected", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		if err := r.SetObservationBudget(-1); err == nil {
			t.Fatal("negative budget accepted")
		}
	})
	t.Run("lowering budget drains immediately", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		obs(r, 12)
		if err := r.SetObservationBudget(3); err != nil {
			t.Fatal(err)
		}
		if r.Len() != 3 || r.Evictions() != 9 {
			t.Fatalf("Len = %d, Evictions = %d, want 3, 9", r.Len(), r.Evictions())
		}
		comparePosteriors(t, r, exactRetained(t, r),
			[][]float64{{0.5}, {4.5}, {11}}, 1e-9, "post-drain")
	})
	t.Run("evict then refit hyperparameters", func(t *testing.T) {
		r := mustRegressor(t, kernel, 0.1)
		if err := r.SetObservationBudget(6); err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(11)
		for i := 0; i < 15; i++ {
			x := 3 * rng.Float64()
			if err := r.Observe([]float64{x}, math.Sin(2*x)+0.05*rng.Normal(0, 1)); err != nil {
				t.Fatal(err)
			}
		}
		grid := HyperGrid{LengthScales: []float64{0.3, 1, 2}, Variances: []float64{0.5, 1}}
		if _, _, _, err := r.MaximizeLML(grid); err != nil {
			t.Fatalf("MaximizeLML on budgeted regressor: %v", err)
		}
		// More observations after the swap keep both the budget and the
		// oracle honest under the refit kernel.
		for i := 0; i < 8; i++ {
			x := 3 * rng.Float64()
			if err := r.Observe([]float64{x}, math.Sin(2*x)); err != nil {
				t.Fatal(err)
			}
		}
		if r.Len() != 6 {
			t.Fatalf("Len = %d after refit+observe, want 6", r.Len())
		}
		comparePosteriors(t, r, exactRetained(t, r),
			[][]float64{{0.2}, {1.5}, {2.8}}, 1e-9, "post-refit")
	})
}

// TestEvictionHookReportsIndices checks the hook sees every eviction with
// the retained-set index actually removed, in order: a shadow list that
// appends each observed point and deletes each reported index must end
// equal to the retained set.
func TestEvictionHookReportsIndices(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	var shadow []float64
	r.SetEvictionHook(func(idx int) { shadow = append(shadow[:idx], shadow[idx+1:]...) })
	if err := r.SetObservationBudget(3); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 4, 8, 0.1, 12, 4.2} {
		shadow = append(shadow, x)
		if err := r.Observe([]float64{x}, 1); err != nil {
			t.Fatal(err)
		}
	}
	xs, _ := r.Observations()
	if len(xs) != len(shadow) {
		t.Fatalf("retained %d points, shadow %v", len(xs), shadow)
	}
	for i, x := range xs {
		if x[0] != shadow[i] {
			t.Fatalf("retained[%d] = %v, shadow %v: hook indices do not match the evictions", i, x[0], shadow)
		}
	}
	if r.Evictions() != 3 {
		t.Fatalf("Evictions() = %d, want 3", r.Evictions())
	}
}

// TestLowestInformationPrefersRedundantPoint: a near-duplicate of an
// existing observation carries almost no conditional information, so the
// leverage policy must evict it (not the far-away, informative points).
func TestLowestInformationPrefersRedundantPoint(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 1e-4)
	var evicted []int
	r.SetEvictionHook(func(idx int) { evicted = append(evicted, idx) })
	if err := r.SetObservationBudget(3); err != nil {
		t.Fatal(err)
	}
	// Three well-separated anchors, then a near-duplicate of the first.
	for _, x := range []float64{0, 5, 10} {
		if err := r.Observe([]float64{x}, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Observe([]float64{1e-6}, 0); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != 3 {
		t.Fatalf("evicted %v, want [3]: the near-duplicate has the least conditional information", evicted)
	}
	xs, _ := r.Observations()
	for i, want := range []float64{0, 5, 10} {
		if xs[i][0] != want {
			t.Fatalf("retained[%d] = %v, want %v", i, xs[i][0], want)
		}
	}
}

// TestBudgetedObserveAddsNoAllocations pins the bounded-memory promise at
// the Regressor level: once buffers are warm at the budget, the eviction
// machinery (leverage scan + compaction + downdate + alpha re-solve) adds
// zero heap allocations on top of what an unbudgeted Observe already pays
// (the copied input point and the telemetry attributes).
func TestBudgetedObserveAddsNoAllocations(t *testing.T) {
	rng := stats.NewRNG(17)
	measure := func(budget int) float64 {
		r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
		if budget > 0 {
			if err := r.SetObservationBudget(budget); err != nil {
				t.Fatal(err)
			}
		}
		obs := func() {
			if err := r.Observe([]float64{10 * rng.Float64()}, rng.Normal(0, 1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			obs() // reach and hold the budget, warming every buffer
		}
		return testing.AllocsPerRun(50, obs)
	}
	unbudgeted := measure(0)
	budgeted := measure(32)
	if budgeted > unbudgeted {
		t.Fatalf("budgeted Observe allocates %.1f times per op vs %.1f unbudgeted: eviction must add nothing",
			budgeted, unbudgeted)
	}
}

// benchmarkObserveBudget times steady-state Observe (append + extend +
// evict + downdate + re-solve) after warm observations at a fixed budget
// of 256. The 1k/10k pair must be flat (within 1.2×, gated in CI via
// BENCH_gp.json): per-round cost depends on the budget, not the horizon.
func benchmarkObserveBudget(b *testing.B, warm int) {
	rng := stats.NewRNG(21)
	r := mustRegressor(b, mustSE(b, 1.5, 1), 0.1)
	if err := r.SetObservationBudget(256); err != nil {
		b.Fatal(err)
	}
	pts := make([][]float64, warm)
	vals := make([]float64, warm)
	for i := range pts {
		x := rng.Uniform(0, 12)
		pts[i] = []float64{x}
		vals[i] = 20*math.Sin(x/3) + rng.Normal(0, 0.7)
	}
	for i := range pts {
		if err := r.Observe(pts[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Observe(pts[i%warm], vals[i%warm]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserve1kBudget256(b *testing.B)  { benchmarkObserveBudget(b, 1_000) }
func BenchmarkObserve10kBudget256(b *testing.B) { benchmarkObserveBudget(b, 10_000) }
