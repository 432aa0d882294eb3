package ucb

import (
	"math"
	"testing"

	"dragster/internal/gp"
	"dragster/internal/stats"
)

// budgetNoise is the observation noise of budgetedSearcher's GP.
const budgetNoise = 25

// budgetedSearcher returns a Searcher over a 1-D task grid with the given
// observation budget and hyperparameter refit cadence.
func budgetedSearcher(t testing.TB, budget, refitEvery int) *Searcher {
	t.Helper()
	cands := make([][]float64, 20)
	for i := range cands {
		cands[i] = []float64{1 + float64(i)*0.5}
	}
	s, err := NewSearcher(Config{
		NoiseVar:          budgetNoise,
		Candidates:        cands,
		RefitEvery:        refitEvery,
		ObservationBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bruteForceSelect recomputes the Extended acquisition argmax from a
// fresh exact regressor fed only the searcher's retained observations —
// no cross-covariance cache, no incremental factor. This is the oracle
// the cached budgeted Select must agree with.
func bruteForceSelect(t *testing.T, s *Searcher, target, beta float64) int {
	t.Helper()
	ref, err := gp.NewRegressor(s.Regressor().Kernel(), budgetNoise)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := s.Regressor().Observations()
	for i := range xs {
		if err := ref.Observe(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	best, idx := math.Inf(-1), -1
	for i, cand := range s.candidates {
		mu, variance, err := ref.Posterior(cand)
		if err != nil {
			t.Fatal(err)
		}
		score := -math.Abs(mu-target) + math.Sqrt(beta)*math.Sqrt(variance)
		if score > best {
			best, idx = score, i
		}
	}
	return idx
}

// TestBudgetedSelectMatchesBruteForce drives a full observe/select loop
// with eviction churning the retained set (and the hyperparameter refit
// swapping kernels mid-run) and checks every Select against a from-scratch
// brute-force scoring of the retained observations. This pins the whole
// chain: eviction hook → cache surgery → PosteriorFromCross.
func TestBudgetedSelectMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		budget     int
		refitEvery int
	}{
		{"lowest-information", 8, 0},
		{"with-hyper-refits", 10, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := budgetedSearcher(t, tc.budget, tc.refitEvery)
			rng := stats.NewRNG(29)
			for round := 0; round < 60; round++ {
				n := rng.Uniform(1, 10)
				if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
					t.Fatal(err)
				}
				if got := s.Regressor().Len(); got > tc.budget {
					t.Fatalf("round %d: retained %d exceeds budget %d", round, got, tc.budget)
				}
				_, idx, beta, err := s.Select(500)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteForceSelect(t, s, 500, beta); idx != want {
					t.Fatalf("round %d: cached Select chose %d, brute force %d", round, idx, want)
				}
			}
			if s.Regressor().Evictions() == 0 {
				t.Fatal("no evictions happened; the test did not exercise the cache surgery")
			}
		})
	}
}

// TestEvictionKeepsCrossCacheAligned white-box checks the cache after
// churn: every cached entry must equal a fresh kernel evaluation against
// the retained observation it claims to cover.
func TestEvictionKeepsCrossCacheAligned(t *testing.T) {
	s := budgetedSearcher(t, 6, 0)
	rng := stats.NewRNG(31)
	for round := 0; round < 40; round++ {
		n := rng.Uniform(1, 10)
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := s.Select(500); err != nil { // force a sync
		t.Fatal(err)
	}
	xs, _ := s.Regressor().Observations()
	if s.crossN != len(xs) {
		t.Fatalf("crossN = %d, retained = %d", s.crossN, len(xs))
	}
	k := s.Regressor().Kernel()
	c := len(s.candidates)
	for i, x := range xs {
		for ci, cand := range s.candidates {
			if got, want := s.crossK[i*c+ci], k.Eval(x, cand); got != want {
				t.Fatalf("crossK[%d][%d] = %v, fresh eval = %v: cache misaligned after eviction", i, ci, got, want)
			}
		}
	}
}

// TestSelectAfterEvictingTheNewPoint covers the corner where the
// observation just fed is itself the lowest-information point and is
// evicted before it ever reaches the cache: the cache must stay aligned
// (idx == crossN no-op path in onEvict).
func TestSelectAfterEvictingTheNewPoint(t *testing.T) {
	s := budgetedSearcher(t, 3, 0)
	// Three well-separated anchors fill the budget.
	for _, n := range []float64{1, 5, 10} {
		if err := s.Observe([]float64{n}, capCurve(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := s.Select(500); err != nil {
		t.Fatal(err)
	}
	// A near-duplicate of the first anchor carries the least conditional
	// information and is evicted immediately — it is the new point itself.
	if err := s.Observe([]float64{1 + 1e-9}, capCurve(1)); err != nil {
		t.Fatal(err)
	}
	xs, _ := s.Regressor().Observations()
	if len(xs) != 3 || xs[0][0] != 1 || xs[1][0] != 5 || xs[2][0] != 10 {
		t.Fatalf("retained set %v, want the three anchors", xs)
	}
	_, idx, beta, err := s.Select(500)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForceSelect(t, s, 500, beta); idx != want {
		t.Fatalf("Select chose %d after new-point eviction, brute force %d", idx, want)
	}
}

// TestConfigRejectsNegativeBudget: the knob is validated at construction.
func TestConfigRejectsNegativeBudget(t *testing.T) {
	_, err := NewSearcher(Config{
		NoiseVar:          25,
		Candidates:        [][]float64{{1}, {2}},
		ObservationBudget: -1,
	})
	if err == nil {
		t.Fatal("negative observation budget accepted")
	}
}

// benchmarkSelectBudget times steady-state Select after warm observations
// at a fixed budget of 256. The 1k/10k pair must be flat (within 1.2×,
// gated in CI via BENCH_gp.json): per-round cost depends on the budget,
// not the horizon.
func benchmarkSelectBudget(b *testing.B, warm int) {
	cands := make([][]float64, 40)
	for i := range cands {
		cands[i] = []float64{1 + float64(i)*0.25}
	}
	s, err := NewSearcher(Config{
		NoiseVar:          25,
		Candidates:        cands,
		ObservationBudget: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(19)
	for i := 0; i < warm; i++ {
		n := rng.Uniform(1, 10)
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.Select(500); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect1kBudget256(b *testing.B)  { benchmarkSelectBudget(b, 1_000) }
func BenchmarkSelect10kBudget256(b *testing.B) { benchmarkSelectBudget(b, 10_000) }
