package ucb

import (
	"errors"
	"math"
	"testing"

	"dragster/internal/gp"
	"dragster/internal/stats"
	"dragster/internal/store"
)

// tableExplore is the exploration scale of the table tests' searchers; a
// value other than 1 keeps the s·√β·σ product order observable.
const tableExplore = 0.3

// sameBits reports whether two floats are equal bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTableMatchesRegressorExactly drives random observe sequences —
// mostly repeated grid points, some off-grid points, kernel swaps by
// explicit SetKernel and, for the 2-D searcher, by RefitEvery — and after
// every step compares each table reader with the value recomputed through
// the regressor's own Mean and Posterior and the β formula, with ==.
func TestTableMatchesRegressorExactly(t *testing.T) {
	grid1, err := store.TaskGrid(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	grid2, err := store.Grid2D(1, 6, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		cands      [][]float64
		refitEvery int
		acq        Acquisition
		offGrid    func(rng *stats.RNG) []float64
	}{
		{"1d", grid1, 0, Extended, func(rng *stats.RNG) []float64 {
			return []float64{float64(1+rng.Intn(10)) + 0.5}
		}},
		{"1d-conventional", grid1, 0, Conventional, func(rng *stats.RNG) []float64 {
			return []float64{float64(1+rng.Intn(10)) + 0.5}
		}},
		{"2d-refit", grid2, 4, Extended, func(rng *stats.RNG) []float64 {
			return []float64{float64(1 + rng.Intn(6)), 500 + float64(rng.Intn(1500))}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkTableSequence(t, seed, tc.cands, tc.refitEvery, tc.acq, tc.offGrid)
			}
		})
	}
}

func checkTableSequence(t *testing.T, seed int64, cands [][]float64, refitEvery int, acq Acquisition, offGrid func(*stats.RNG) []float64) {
	t.Helper()
	s, err := NewSearcher(Config{
		NoiseVar:         25,
		Candidates:       cands,
		Acquisition:      acq,
		ExplorationScale: tableExplore,
		RefitEvery:       refitEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	for step := 0; step < 80; step++ {
		switch op := rng.Float64(); {
		case op < 0.75 || s.Observations() == 0:
			x := cands[rng.Intn(min(4, len(cands)))] // few points: mostly repeats
			if rng.Float64() < 0.3 {
				x = cands[rng.Intn(len(cands))]
			}
			if err := s.Observe(x, rng.Normal(100*x[0], 20)); err != nil {
				t.Fatal(err)
			}
		case op < 0.85:
			x := offGrid(rng)
			if err := s.Observe(x, rng.Normal(100*x[0], 20)); err != nil {
				t.Fatal(err)
			}
		default:
			k, err := gp.NewSquaredExponential(rng.Uniform(0.5, 4), rng.Uniform(1000, 20000))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Regressor().SetKernel(k); err != nil {
				t.Fatal(err)
			}
		}
		// Read every candidate and one off-grid point through each
		// reader, oracle first on odd steps so neither side always
		// triggers the lazy refit.
		points := append(append([][]float64(nil), cands...), offGrid(rng))
		for i, x := range points {
			checkTableRead(t, s, i, x, step%2 == 1)
		}
		target := rng.Uniform(0, 1200)
		gotX, gotIdx, gotBeta, err := s.Select(target)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantBeta := oracleSelect(t, s, target)
		if gotIdx != wantIdx || !sameBits(gotBeta, wantBeta) || !sameBits(gotX[0], cands[wantIdx][0]) {
			t.Fatalf("seed %d step %d: Select(%v) = (%v, %d, %v), oracle (%d, %v)", seed, step, target, gotX, gotIdx, gotBeta, wantIdx, wantBeta)
		}
	}
}

// checkTableRead compares Mean, OptimisticAt and (for a candidate index
// i) PosteriorAt, CandidateMean and CandidateOptimistic with their
// regressor recomputations.
func checkTableRead(t *testing.T, s *Searcher, i int, x []float64, oracleFirst bool) {
	t.Helper()
	reg := s.Regressor()
	var mean, opt, wantMean, wantMu, wantVar float64
	var errs [4]error
	read := func() {
		mean, errs[0] = s.Mean(x)
		opt, errs[1] = s.OptimisticAt(x)
	}
	oracle := func() {
		wantMean, errs[2] = reg.Mean(x)
		wantMu, wantVar, errs[3] = reg.Posterior(x)
	}
	if oracleFirst {
		oracle()
		read()
	} else {
		read()
		oracle()
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	beta := Beta(s.Observations(), len(s.candidates), confidenceDelta)
	wantOpt := wantMu + tableExplore*math.Sqrt(beta)*math.Sqrt(wantVar)
	if !sameBits(mean, wantMean) || !sameBits(opt, wantOpt) {
		t.Fatalf("at %v: Mean %v OptimisticAt %v, regressor %v %v", x, mean, opt, wantMean, wantOpt)
	}
	if i >= len(s.candidates) {
		return
	}
	mu, variance, err := s.PosteriorAt(i)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(mu, wantMu) || !sameBits(variance, wantVar) {
		t.Fatalf("PosteriorAt(%d) = (%v, %v), regressor (%v, %v)", i, mu, variance, wantMu, wantVar)
	}
	mean, errs[0] = s.CandidateMean(i)
	opt, errs[1] = s.CandidateOptimistic(i)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs[0], errs[1])
	}
	if !sameBits(mean, wantMean) || !sameBits(opt, wantOpt) {
		t.Fatalf("CandidateMean(%d) %v CandidateOptimistic(%d) %v, regressor %v %v", i, mean, i, opt, wantMean, wantOpt)
	}
}

// oracleSelect scores every candidate through the regressor's Posterior
// with Select's own bonus expression and returns the argmax and β_t.
func oracleSelect(t *testing.T, s *Searcher, target float64) (int, float64) {
	t.Helper()
	beta := Beta(s.Observations(), len(s.candidates), confidenceDelta)
	best, idx := math.Inf(-1), -1
	for i, cand := range s.candidates {
		mu, variance, err := s.Regressor().Posterior(cand)
		if err != nil {
			t.Fatal(err)
		}
		bonus := math.Sqrt(beta) * math.Sqrt(variance) * tableExplore
		score := mu + bonus
		if s.acq == Extended {
			score = -math.Abs(mu-target) + bonus
		}
		if score > best {
			best, idx = score, i
		}
	}
	return idx, beta
}

// TestReadersOnEmptyGP pins ErrNoData for every reader before the first
// observation, at grid and off-grid points alike.
func TestReadersOnEmptyGP(t *testing.T) {
	s := newSearcher(t, Extended)
	for _, x := range [][]float64{{3}, {3.5}} {
		if _, err := s.Mean(x); !errors.Is(err, ErrNoData) {
			t.Errorf("Mean(%v) on an empty GP: err = %v, want ErrNoData", x, err)
		}
		if _, err := s.OptimisticAt(x); !errors.Is(err, ErrNoData) {
			t.Errorf("OptimisticAt(%v) on an empty GP: err = %v, want ErrNoData", x, err)
		}
	}
	if _, err := s.CandidateMean(0); !errors.Is(err, ErrNoData) {
		t.Errorf("CandidateMean(0) on an empty GP: err = %v, want ErrNoData", err)
	}
	if _, err := s.CandidateOptimistic(0); !errors.Is(err, ErrNoData) {
		t.Errorf("CandidateOptimistic(0) on an empty GP: err = %v, want ErrNoData", err)
	}
}

// TestObserveAtGridPointEvaluatesNoKernelRow counts kernel evaluations
// over observations and the read after them. Once the candidate cache
// and the factor are current, observations repeating a candidate
// evaluate no kernel at all, and one opening a new candidate row
// evaluates only the cache's C new entries, which the next read appends.
func TestObserveAtGridPointEvaluatesNoKernelRow(t *testing.T) {
	k := &countingKernel{inner: gp.SquaredExponential{LengthScale: 2, Variance: 1e4}}
	s, err := NewSearcher(Config{NoiseVar: 25, Candidates: taskCandidates(t), Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	c := len(s.candidates)
	observeThenRead := func(x float64, repeats int) int {
		t.Helper()
		k.n = 0
		for i := 0; i < repeats; i++ {
			if err := s.Observe([]float64{x}, 100*x); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Mean([]float64{x}); err != nil {
			t.Fatal(err)
		}
		return k.n
	}
	if n := observeThenRead(3, 1); n != c+1 {
		t.Errorf("first observation evaluated %d kernels, want %d: the %d cache entries and the first factorization's diagonal", n, c+1, c)
	}
	if n := observeThenRead(3, 5); n != 0 {
		t.Errorf("repeated grid observations evaluated %d kernels, want 0", n)
	}
	if n := observeThenRead(7, 1); n != c {
		t.Errorf("new grid row evaluated %d kernels, want the %d cache entries", n, c)
	}
}

// countingKernel counts Eval calls on the kernel it wraps.
type countingKernel struct {
	inner gp.Kernel
	n     int
}

func (k *countingKernel) Eval(x, y []float64) float64 {
	k.n++
	return k.inner.Eval(x, y)
}
