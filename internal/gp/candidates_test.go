package gp

import (
	"errors"
	"math"
	"testing"

	"dragster/internal/stats"
	"dragster/internal/telemetry"
)

// lattice returns the n×n grid {0, 1.5, 3, …}² of 2-D candidates.
func lattice(n int) [][]float64 {
	var cands [][]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cands = append(cands, []float64{1.5 * float64(i), 1.5 * float64(j)})
		}
	}
	return cands
}

func mustCandidateRegressor(t testing.TB, k Kernel, noise float64, cands [][]float64) *Regressor {
	t.Helper()
	r, err := NewRegressor(k, noise, cands)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCandidateReadsMatchReference feeds a regressor over a candidate
// lattice and a reference regressor without candidates the same sequence
// — mostly repeated candidates, some points off the lattice, SetKernel
// swaps and MaximizeLML refits — and after most steps requires the
// factor, α and information gain to be bit-equal, and every MeanAt and
// PosteriorAt to be == to the reference's Mean and Posterior at that
// candidate, with σ = √σ². The reference evaluates every kernel row; the
// candidate regressor takes them from its cache. Mean-only reads go
// first on even steps, so both fill orders of the table are checked, and
// skipped steps leave a kernel swap or new rows pending for the next
// observation.
func TestCandidateReadsMatchReference(t *testing.T) {
	cands := lattice(4)
	for seed := int64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		kern := mustSE(t, 1.5, 4)
		ref := mustRegressor(t, kern, 0.2)
		reg := mustCandidateRegressor(t, kern, 0.2, cands)
		if reg.table != nil {
			t.Fatal("NewRegressor allocated the candidate table")
		}
		for step := 0; step < 80; step++ {
			switch op := rng.Float64(); {
			case op < 0.65 || ref.Len() < 3:
				x := cands[rng.Intn(5)] // few points: mostly repeats
				if rng.Float64() < 0.3 {
					x = cands[rng.Intn(len(cands))]
				}
				observeBoth(t, ref, reg, x, rng.Normal(10, 3))
			case op < 0.8:
				observeBoth(t, ref, reg, []float64{rng.Uniform(-1, 6), rng.Uniform(-1, 6)}, rng.Normal(10, 3))
			case op < 0.92:
				k := mustSE(t, rng.Uniform(0.5, 3), rng.Uniform(1, 8))
				if err := ref.SetKernel(k); err != nil {
					t.Fatal(err)
				}
				if err := reg.SetKernel(k); err != nil {
					t.Fatal(err)
				}
			default:
				grid, err := DefaultHyperGrid(6, 9)
				if err != nil {
					t.Fatal(err)
				}
				ls1, v1, _, err1 := ref.MaximizeLML(grid)
				ls2, v2, _, err2 := reg.MaximizeLML(grid)
				if err1 != nil || err2 != nil || ls1 != ls2 || v1 != v2 {
					t.Fatalf("seed %d step %d: MaximizeLML (%v, %v, %v) vs (%v, %v, %v)", seed, step, ls1, v1, err1, ls2, v2, err2)
				}
			}
			if rng.Float64() < 0.25 {
				continue
			}
			checkCandidateReads(t, ref, reg, step%2 == 0)
			if !sameFit(ref, reg) {
				t.Fatalf("seed %d step %d: factor, α or information gain differs from the reference", seed, step)
			}
		}
	}
}

// observeBoth feeds one observation to both regressors.
func observeBoth(t *testing.T, ref, reg *Regressor, x []float64, y float64) {
	t.Helper()
	if err := ref.Observe(x, y); err != nil {
		t.Fatal(err)
	}
	if err := reg.Observe(x, y); err != nil {
		t.Fatal(err)
	}
}

// checkCandidateReads compares every candidate read of reg with the
// reference's Mean and Posterior at that candidate.
func checkCandidateReads(t *testing.T, ref, reg *Regressor, meanFirst bool) {
	t.Helper()
	for i, c := range reg.cands {
		var mean, mu, variance, sd float64
		var errM, errP error
		if meanFirst {
			mean, errM = reg.MeanAt(i)
			mu, variance, sd, errP = reg.PosteriorAt(i)
		} else {
			mu, variance, sd, errP = reg.PosteriorAt(i)
			mean, errM = reg.MeanAt(i)
		}
		wantMean, err1 := ref.Mean(c)
		wantMu, wantVar, err2 := ref.Posterior(c)
		for _, err := range []error{errM, errP, err1, err2} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if mean != wantMean || mu != wantMu || variance != wantVar || sd != math.Sqrt(wantVar) {
			t.Fatalf("candidate %d %v: MeanAt %v, PosteriorAt (%v, %v, %v); reference Mean %v, Posterior (%v, %v)",
				i, c, mean, mu, variance, sd, wantMean, wantMu, wantVar)
		}
	}
}

// sameFit reports whether two fitted regressors hold bit-equal factors,
// centring means, weights and information gains.
func sameFit(a, b *Regressor) bool {
	if a.InformationGain() != b.InformationGain() || a.mean != b.mean || a.Rows() != b.Rows() {
		return false
	}
	for i := range a.alpha {
		if a.alpha[i] != b.alpha[i] {
			return false
		}
		for j := 0; j <= i; j++ {
			if a.chol.At(i, j) != b.chol.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestCandidateReadsOnEmptyRegressor pins ErrEmpty for both candidate
// readers before the first observation, returned without a refit.
func TestCandidateReadsOnEmptyRegressor(t *testing.T) {
	reg := mustCandidateRegressor(t, mustSE(t, 1, 1), 0.1, lattice(2))
	tr := telemetry.NewTracer()
	tr.SetMetrics(telemetry.NewRegistry())
	reg.SetTracer(tr, "op")
	if _, err := reg.MeanAt(0); !errors.Is(err, ErrEmpty) {
		t.Errorf("MeanAt on an empty regressor: err = %v, want ErrEmpty", err)
	}
	if _, _, _, err := reg.PosteriorAt(1); !errors.Is(err, ErrEmpty) {
		t.Errorf("PosteriorAt on an empty regressor: err = %v, want ErrEmpty", err)
	}
	if n := tr.Metrics().CounterValue("gp_refits"); n != 0 || len(tr.Spans()) != 0 {
		t.Errorf("empty candidate reads refit %d times and traced %d spans, want none", n, len(tr.Spans()))
	}
}

// TestCrossCacheAlignedWithRows white-box checks the cross-covariance
// cache: after a run of repeats it covers exactly the regressor's rows,
// a repeated candidate adds no block, and after a kernel swap every entry
// and self-covariance equals a fresh evaluation under the new kernel.
func TestCrossCacheAlignedWithRows(t *testing.T) {
	cands := lattice(4)
	reg := mustCandidateRegressor(t, mustSE(t, 1.5, 4), 0.2, cands)
	c := len(cands)
	for i, ci := range []int{1, 5, 10, 1} {
		if err := reg.Observe(cands[ci], float64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.MeanAt(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(reg.crossK) != 3*c {
		t.Fatalf("cache holds %d entries after a repeat, want 3 rows of %d", len(reg.crossK), c)
	}
	rng := stats.NewRNG(31)
	for round := 0; round < 40; round++ {
		if err := reg.Observe(cands[rng.Intn(6)], rng.Normal(10, 3)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if _, _, _, err := reg.PosteriorAt(0); err != nil { // extends the cache
			t.Fatal(err)
		}
		if reg.Rows() > 7 || len(reg.crossK) != reg.Rows()*c {
			t.Fatalf("%s: cache holds %d entries for %d rows (at most 7 distinct points observed)", when, len(reg.crossK), reg.Rows())
		}
		for ci, cand := range cands {
			if got, want := reg.candKxx[ci], reg.kernel.Eval(cand, cand); got != want {
				t.Fatalf("%s: k(c_%d, c_%d) cached %v, fresh %v", when, ci, ci, got, want)
			}
			for j, x := range reg.xs {
				if got, want := reg.crossK[j*c+ci], reg.kernel.Eval(x, cand); got != want {
					t.Fatalf("%s: crossK[%d][%d] = %v, fresh eval = %v: cache misaligned with the rows", when, j, ci, got, want)
				}
			}
		}
	}
	check("after repeats")
	if err := reg.SetKernel(mustSE(t, 0.7, 2)); err != nil {
		t.Fatal(err)
	}
	check("after SetKernel")
}

// TestObserveFromCrossMatchesObserve feeds a regressor without candidates
// and one whose candidates hold every point of the sequence the same new
// and repeated points, and requires the factor, α and information gain to
// be bit-equal after every step. The candidate regressor takes k(x, x)
// and the kernel row of each observation from its cross-covariance cache,
// which therefore covers every earlier row. A point of the wrong
// dimension is rejected and changes nothing.
func TestObserveFromCrossMatchesObserve(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		points := make([][]float64, 40)
		for i := range points {
			points[i] = []float64{rng.Uniform(-5, 5), rng.Uniform(-5, 5)}
		}
		kern := mustSE(t, 1.5, 4)
		plain := mustRegressor(t, kern, 0.2)
		cross := mustCandidateRegressor(t, kern, 0.2, points)
		for step := 0; step < 60; step++ {
			x := points[rng.Intn(len(points))]
			if plain.Rows() > 0 && rng.Float64() < 0.5 {
				xs, _ := plain.Observations()
				x = xs[rng.Intn(len(xs))]
			}
			rowsBefore := cross.Rows()
			observeBoth(t, plain, cross, x, rng.Normal(10, 3))
			if rowsBefore > 0 && len(cross.crossK) != rowsBefore*len(points) {
				t.Fatalf("seed %d step %d: cache holds %d entries after observing at a candidate, want %d rows of %d",
					seed, step, len(cross.crossK), rowsBefore, len(points))
			}
			if err := plain.ensureFit(); err != nil {
				t.Fatal(err)
			}
			if err := cross.ensureFit(); err != nil {
				t.Fatal(err)
			}
			if !sameFit(plain, cross) {
				t.Fatalf("seed %d step %d: factor, α or information gain differs from the plain regressor", seed, step)
			}
		}
		n, rows, cached := cross.Len(), cross.Rows(), len(cross.crossK)
		if err := cross.Observe([]float64{0, 0, 0}, 1); err == nil {
			t.Fatal("Observe accepted a point of the wrong dimension")
		}
		if cross.Len() != n || cross.Rows() != rows || len(cross.crossK) != cached {
			t.Fatalf("rejected Observe changed the regressor: %d obs %d rows %d cached, want %d %d %d",
				cross.Len(), cross.Rows(), len(cross.crossK), n, rows, cached)
		}
	}
}

// TestMeanFromCrossMatchesMean pins MeanAt, which reads each candidate's
// kernel row from the cross-covariance cache, to Mean bit for bit while
// observations off the candidate set keep adding rows to the cache.
func TestMeanFromCrossMatchesMean(t *testing.T) {
	rng := stats.NewRNG(3)
	cands := make([][]float64, 12)
	for i := range cands {
		cands[i] = []float64{rng.Uniform(-6, 6)}
	}
	kern := mustSE(t, 1.5, 4)
	r := mustCandidateRegressor(t, kern, 0.2, cands)
	for step := 0; step < 30; step++ {
		if err := r.Observe([]float64{rng.Uniform(-5, 5)}, rng.Normal(10, 3)); err != nil {
			t.Fatal(err)
		}
		for i, c := range cands {
			got, err := r.MeanAt(i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Mean(c)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d candidate %d: MeanAt %v, Mean %v", step, i, got, want)
			}
		}
	}
}
