package ucb

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dragster/internal/gp"
	"dragster/internal/stats"
	"dragster/internal/store"
)

func taskCandidates(t testing.TB) [][]float64 {
	t.Helper()
	g, err := store.TaskGrid(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newSearcher(t testing.TB, acq Acquisition) *Searcher {
	t.Helper()
	s, err := NewSearcher(Config{
		NoiseVar:    25,
		Candidates:  taskCandidates(t),
		Acquisition: acq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBetaSchedule(t *testing.T) {
	b1 := Beta(1, 100, 2)
	b10 := Beta(10, 100, 2)
	if b1 <= 0 {
		t.Errorf("β_1 = %v, want positive", b1)
	}
	if b10 <= b1 {
		t.Errorf("β must grow with t: β_1=%v β_10=%v", b1, b10)
	}
	if Beta(0, 100, 2) != b1 {
		t.Error("t < 1 not clamped")
	}
	// Tiny candidate sets must still give positive β.
	if Beta(1, 1, 1.0001) <= 0 {
		t.Error("β non-positive for tiny |X|")
	}
}

func TestNewSearcherValidation(t *testing.T) {
	if _, err := NewSearcher(Config{NoiseVar: 1}); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := NewSearcher(Config{NoiseVar: 1, Candidates: [][]float64{{}}}); err == nil {
		t.Error("zero-dim candidates accepted")
	}
	if _, err := NewSearcher(Config{NoiseVar: 1, Candidates: [][]float64{{1}, {1, 2}}}); err == nil {
		t.Error("ragged candidates accepted")
	}
	if _, err := NewSearcher(Config{NoiseVar: 0, Candidates: [][]float64{{1}}}); err == nil {
		t.Error("zero noise accepted")
	}
}

func TestSelectBeforeDataReturnsErrNoData(t *testing.T) {
	s := newSearcher(t, Extended)
	if _, _, _, err := s.Select(100); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

// capCurve is the hidden capacity function the searcher must learn:
// concave in the task count, 100·n^0.9.
func capCurve(n float64) float64 { return 100 * math.Pow(n, 0.9) }

func TestExtendedTracksTarget(t *testing.T) {
	s := newSearcher(t, Extended)
	rng := stats.NewRNG(1)
	// Observe a few scattered configurations.
	for _, n := range []float64{1, 4, 7, 10} {
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	// Run the select→observe loop toward a target of 500 tuples/s
	// (capCurve(6)≈500). It must settle near 6 tasks, not at 10.
	var lastIdx int
	for i := 0; i < 15; i++ {
		x, idx, beta, err := s.Select(500)
		if err != nil {
			t.Fatal(err)
		}
		if beta <= 0 {
			t.Fatalf("β = %v", beta)
		}
		lastIdx = idx
		if err := s.Observe(x, capCurve(x[0])+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	chosen := float64(lastIdx + 1) // grid is 1..10
	if math.Abs(chosen-6) > 1 {
		t.Errorf("extended UCB settled at %v tasks, want ≈6 for target 500", chosen)
	}
}

func TestConventionalChasesMaximum(t *testing.T) {
	s := newSearcher(t, Conventional)
	rng := stats.NewRNG(2)
	for _, n := range []float64{1, 5, 10} {
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	var lastIdx int
	for i := 0; i < 15; i++ {
		x, idx, _, err := s.Select(0) // target ignored
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
		if err := s.Observe(x, capCurve(x[0])+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if lastIdx < 8 { // should sit at/near 10 tasks (index 9)
		t.Errorf("conventional UCB settled at index %d, want near max", lastIdx)
	}
}

func TestSelectExploresUnseenUnderHighUncertainty(t *testing.T) {
	// With a single observation far from target, high σ² regions should win
	// initially (exploration).
	s := newSearcher(t, Extended)
	if err := s.Observe([]float64{1}, capCurve(1)); err != nil {
		t.Fatal(err)
	}
	_, idx, _, err := s.Select(capCurve(1))
	if err != nil {
		t.Fatal(err)
	}
	if idx == 0 {
		t.Error("no exploration despite flat posterior mean elsewhere")
	}
}

func TestPosteriorAt(t *testing.T) {
	s := newSearcher(t, Extended)
	if _, _, err := s.PosteriorAt(99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := s.Observe([]float64{5}, 480); err != nil {
		t.Fatal(err)
	}
	mu, s2, err := s.PosteriorAt(4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-480) > 30 || s2 > 26 {
		t.Errorf("posterior at observed point = (%v, %v)", mu, s2)
	}
}

func TestCandidatesCopied(t *testing.T) {
	in := [][]float64{{1}, {2}}
	s, err := NewSearcher(Config{NoiseVar: 1, Candidates: in})
	if err != nil {
		t.Fatal(err)
	}
	in[0][0] = 99
	if s.Candidates()[0][0] != 1 {
		t.Error("constructor did not copy candidates")
	}
	got := s.Candidates()
	got[1][0] = 99
	if s.Candidates()[1][0] != 2 {
		t.Error("Candidates leaked internal storage")
	}
}

func TestProjectTasksWithinBudgetUnchanged(t *testing.T) {
	loss := func(op, from int) float64 { return 1 }
	got, err := ProjectTasks([]int{3, 4}, 10, 1, loss)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("within-budget projection changed: %v", got)
	}
}

func TestProjectTasksTrimsCheapestCapacity(t *testing.T) {
	// Removing a task from op 0 costs 10, from op 1 costs 100: the
	// projection should strip op 0 first.
	loss := func(op, from int) float64 {
		if op == 0 {
			return 10
		}
		return 100
	}
	got, err := ProjectTasks([]int{5, 5}, 7, 1, loss)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 5 {
		t.Errorf("projection = %v, want [2 5]", got)
	}
}

func TestProjectTasksRespectsMin(t *testing.T) {
	loss := func(op, from int) float64 { return float64(op) }
	got, err := ProjectTasks([]int{10, 1}, 3, 1, loss)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("projection = %v, want [2 1]", got)
	}
	if _, err := ProjectTasks([]int{1, 1}, 1, 1, loss); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := ProjectTasks([]int{2}, 2, 0, loss); err == nil {
		t.Error("minTasks 0 accepted")
	}
}

func TestProjectTasksFeasibilityProperty(t *testing.T) {
	loss := func(op, from int) float64 { return float64(op*31+from) * 0.7 }
	f := func(a, b, c uint8, budgetRaw uint8) bool {
		desired := []int{1 + int(a%12), 1 + int(b%12), 1 + int(c%12)}
		budget := 3 + int(budgetRaw%30)
		got, err := ProjectTasks(desired, budget, 1, loss)
		if err != nil {
			return false
		}
		total := 0
		for i, v := range got {
			if v < 1 {
				return false
			}
			if v > desired[i] && desired[i] >= 1 {
				return false // projection must never add tasks
			}
			total += v
		}
		return total <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRefitEveryImprovesFit(t *testing.T) {
	// Start with a badly mis-scaled kernel; periodic LML refits should
	// recover a sensible posterior while a frozen kernel stays poor.
	badKernel, err := gp.NewSquaredExponential(0.1, 1) // tiny scale, unit variance vs ~1e5 targets
	if err != nil {
		t.Fatal(err)
	}
	mk := func(refit int) *Searcher {
		s, err := NewSearcher(Config{
			Kernel:     badKernel,
			NoiseVar:   1e6,
			Candidates: taskCandidates(t),
			RefitEvery: refit,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	truth := func(n float64) float64 { return 16000 * math.Pow(n, 0.85) }
	feed := func(s *Searcher) {
		rng := stats.NewRNG(21)
		for i := 0; i < 20; i++ {
			n := 1 + float64(rng.Intn(10))
			if err := s.Observe([]float64{n}, truth(n)+rng.Normal(0, 500)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mae := func(s *Searcher) float64 {
		var m float64
		for i := 0; i < 10; i++ {
			mu, _, err := s.PosteriorAt(i)
			if err != nil {
				t.Fatal(err)
			}
			m += math.Abs(mu - truth(float64(i+1)))
		}
		return m / 10
	}
	frozen := mk(0)
	refit := mk(5)
	feed(frozen)
	feed(refit)
	if mae(refit) >= mae(frozen) {
		t.Errorf("refit MAE %v not below frozen MAE %v", mae(refit), mae(frozen))
	}
	if _, err := NewSearcher(Config{NoiseVar: 1, Candidates: taskCandidates(t), RefitEvery: -1}); err == nil {
		t.Error("negative refit interval accepted")
	}
}

func TestAcquisitionString(t *testing.T) {
	if Extended.String() != "extended" || Conventional.String() != "conventional" || Thompson.String() != "thompson" {
		t.Error("acquisition names wrong")
	}
	if Acquisition(7).String() == "" {
		t.Error("unknown acquisition empty name")
	}
}

func TestThompsonRequiresRNG(t *testing.T) {
	if _, err := NewSearcher(Config{
		NoiseVar:    25,
		Candidates:  taskCandidates(t),
		Acquisition: Thompson,
	}); err == nil {
		t.Error("Thompson without RNG accepted")
	}
}

func TestThompsonTracksTarget(t *testing.T) {
	s, err := NewSearcher(Config{
		NoiseVar:    25,
		Candidates:  taskCandidates(t),
		Acquisition: Thompson,
		RNG:         stats.NewRNG(17),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(18)
	for _, n := range []float64{1, 4, 7, 10} {
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	// Thompson is stochastic; check the MODE of its choices tracks the
	// target (capCurve(6) ≈ 500) after the select→observe loop warms up.
	counts := make(map[int]int)
	for i := 0; i < 30; i++ {
		x, idx, beta, err := s.Select(500)
		if err != nil {
			t.Fatal(err)
		}
		if beta <= 0 {
			t.Fatalf("β = %v", beta)
		}
		counts[idx]++
		if err := s.Observe(x, capCurve(x[0])+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	best, bestN := -1, 0
	for idx, n := range counts {
		if n > bestN {
			best, bestN = idx, n
		}
	}
	chosen := float64(best + 1)
	if math.Abs(chosen-6) > 1 {
		t.Errorf("Thompson mode at %v tasks (%d/30 picks), want ≈6", chosen, bestN)
	}
	// And it must actually explore: more than one distinct arm pulled.
	if len(counts) < 2 {
		t.Error("Thompson never explored")
	}
}

// TestSelectMatchesUncachedPosteriors pins the cross-covariance cache to
// the uncached reference: after interleaved observations and a
// hyperparameter refit (kernel swap ⇒ full cache rebuild), Select's
// cached scoring must pick the same candidate the direct PosteriorBatch
// scoring picks, with identical posterior values at the winner.
func TestSelectMatchesUncachedPosteriors(t *testing.T) {
	s, err := NewSearcher(Config{
		NoiseVar:   25,
		Candidates: taskCandidates(t),
		RefitEvery: 7, // force kernel swaps mid-sequence
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	for i := 0; i < 30; i++ {
		n := 1 + float64(rng.Intn(10))
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			continue
		}
		target := rng.Uniform(100, 700)
		_, idx, beta, err := s.Select(target)
		if err != nil {
			t.Fatal(err)
		}
		// Reference scoring without the cache.
		mus, vars, err := s.Regressor().PosteriorBatch(s.Candidates())
		if err != nil {
			t.Fatal(err)
		}
		best, bestScore := -1, math.Inf(-1)
		for c := range mus {
			score := -math.Abs(mus[c]-target) + math.Sqrt(beta)*math.Sqrt(vars[c])
			if score > bestScore {
				bestScore, best = score, c
			}
		}
		if idx != best {
			t.Fatalf("step %d: cached Select chose %d, uncached reference %d", i, idx, best)
		}
		mu, v2, err := s.PosteriorAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if mu != mus[idx] || v2 != vars[idx] {
			t.Fatalf("step %d: cached posterior (%v, %v) vs direct (%v, %v)", i, mu, v2, mus[idx], vars[idx])
		}
	}
}

// TestSearchDeterministicWithParallelLML runs the same seeded search —
// hyperparameter refits enabled — at different GOMAXPROCS values, which
// set the LML grid search's worker count, and requires the full
// selection trajectory to be identical: the parallel grid search must not
// leak scheduling nondeterminism into the seeded experiments.
func TestSearchDeterministicWithParallelLML(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	trajectory := func(procs int) []int {
		runtime.GOMAXPROCS(procs)
		s, err := NewSearcher(Config{
			NoiseVar:   25,
			Candidates: taskCandidates(t),
			RefitEvery: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(23)
		var picks []int
		for i := 0; i < 40; i++ {
			n := 1 + float64(rng.Intn(10))
			if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
				t.Fatal(err)
			}
			_, idx, _, err := s.Select(rng.Uniform(100, 700))
			if err != nil {
				t.Fatal(err)
			}
			picks = append(picks, idx)
		}
		return picks
	}
	serial := trajectory(1)
	for _, procs := range []int{2, 8, 64} {
		got := trajectory(procs)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("GOMAXPROCS=%d: step %d selected %d, serial selected %d", procs, i, got[i], serial[i])
			}
		}
	}
}

func BenchmarkSelect200Obs(b *testing.B) {
	cands := make([][]float64, 40)
	for i := range cands {
		cands[i] = []float64{1 + float64(i)*0.25}
	}
	s, err := NewSearcher(Config{NoiseVar: 25, Candidates: cands})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(19)
	for i := 0; i < 200; i++ {
		n := 1 + 9*rng.Uniform(0, 1)
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

func BenchmarkSelect10Candidates(b *testing.B) {
	s, err := NewSearcher(Config{NoiseVar: 25, Candidates: func() [][]float64 {
		g, _ := store.TaskGrid(1, 10)
		return g
	}()})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 20; i++ {
		n := 1 + float64(rng.Intn(10))
		if err := s.Observe([]float64{n}, capCurve(n)+rng.Normal(0, 5)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.Select(500); err != nil {
			b.Fatal(err)
		}
	}
}
