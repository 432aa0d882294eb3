package ucb

import (
	"math"
	"testing"

	"dragster/internal/gp"
	"dragster/internal/stats"
)

// rowsNoise is the observation noise of gridSearcher's GP.
const rowsNoise = 25

// gridSearcher returns a Searcher over a 1-D grid of 20 task counts with
// the given hyperparameter refit cadence.
func gridSearcher(t testing.TB, refitEvery int) *Searcher {
	t.Helper()
	cands := make([][]float64, 20)
	for i := range cands {
		cands[i] = []float64{1 + float64(i)*0.5}
	}
	s, err := NewSearcher(Config{
		NoiseVar:   rowsNoise,
		Candidates: cands,
		RefitEvery: refitEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// uncachedSelect re-scores the Extended acquisition from a fresh
// regressor without candidates fed every raw observation (xs[i], ys[i])
// under the searcher's current kernel, reading plain Posterior calls: no
// candidate cache and no incremental factor. It is the oracle Select must agree
// with.
func uncachedSelect(t *testing.T, s *Searcher, xs [][]float64, ys []float64, target, beta float64) int {
	t.Helper()
	ref, err := gp.NewRegressor(s.Regressor().Kernel(), rowsNoise, nil)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSelectMatchesRawOracleUnderRepeats drives a full observe/select
// loop that mostly revisits candidates — each repeat adds no row and no
// cache block — with and without hyperparameter refits swapping kernels
// mid-run, and checks every Select against uncachedSelect. This pins the
// chain row merge → candidate cache → candidate table.
func TestSelectMatchesRawOracleUnderRepeats(t *testing.T) {
	for _, tc := range []struct {
		name       string
		refitEvery int
	}{
		{"grid-repeats", 0},
		{"with-hyper-refits", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := gridSearcher(t, tc.refitEvery)
			rng := stats.NewRNG(29)
			var xs [][]float64
			var ys []float64
			for round := 0; round < 60; round++ {
				x := s.candidates[rng.Intn(len(s.candidates))]
				if rng.Float64() < 0.1 {
					x = []float64{rng.Uniform(1, 10)} // an off-grid point opens a row too
				}
				y := capCurve(x[0]) + rng.Normal(0, 5)
				if err := s.Observe(x, y); err != nil {
					t.Fatal(err)
				}
				xs, ys = append(xs, x), append(ys, y)
				_, idx, beta, err := s.Select(500)
				if err != nil {
					t.Fatal(err)
				}
				if want := uncachedSelect(t, s, xs, ys, 500, beta); idx != want {
					t.Fatalf("round %d: cached Select chose %d, uncached oracle %d", round, idx, want)
				}
			}
			if r := s.Regressor(); r.Len() != 60 || r.Rows() >= 40 {
				t.Fatalf("Len %d, Rows %d: the loop did not repeat configurations", r.Len(), r.Rows())
			}
		})
	}
}

// TestSelectAfterRepeatAddsNoRow covers the corner where the observation
// just fed repeats a cached row: the next Select must still match the
// uncached oracle. (gp's TestCrossCacheAlignedWithRows checks that the
// repeat adds no cache block.)
func TestSelectAfterRepeatAddsNoRow(t *testing.T) {
	s := gridSearcher(t, 0)
	var xs [][]float64
	var ys []float64
	for _, n := range []float64{1, 5, 10, 1} {
		y := capCurve(n)
		if err := s.Observe([]float64{n}, y); err != nil {
			t.Fatal(err)
		}
		xs, ys = append(xs, []float64{n}), append(ys, y)
		if _, _, _, err := s.Select(500); err != nil {
			t.Fatal(err)
		}
	}
	_, idx, beta, err := s.Select(500)
	if err != nil {
		t.Fatal(err)
	}
	if want := uncachedSelect(t, s, xs, ys, 500, beta); idx != want {
		t.Fatalf("Select chose %d after a repeat, uncached oracle %d", idx, want)
	}
}

// benchmarkSelectGrid times steady-state Select after warm observations
// drawn from the searcher's own 40-candidate grid, as a controller draws
// them. The 1k/10k pair must be flat (within 1.2×, gated in CI via
// BENCH_gp.json): the GP's rows are bounded by the grid, not the horizon.
func benchmarkSelectGrid(b *testing.B, warm int) {
	cands := make([][]float64, 40)
	for i := range cands {
		cands[i] = []float64{1 + float64(i)*0.25}
	}
	s, err := NewSearcher(Config{NoiseVar: 25, Candidates: cands})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(19)
	for i := 0; i < warm; i++ {
		x := cands[rng.Intn(len(cands))]
		if err := s.Observe(x, capCurve(x[0])+rng.Normal(0, 5)); err != nil {
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

func BenchmarkSelectGrid1k(b *testing.B)  { benchmarkSelectGrid(b, 1_000) }
func BenchmarkSelectGrid10k(b *testing.B) { benchmarkSelectGrid(b, 10_000) }
