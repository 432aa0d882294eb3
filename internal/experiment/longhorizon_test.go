package experiment

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dragster/internal/workload"
)

// soakRounds is the long-horizon soak length: 10k rounds normally, scaled
// down under the race detector where the instrumented loop is ~10× slower.
func soakRounds() int {
	if raceDetectorEnabled {
		return 600
	}
	return 10_000
}

// heapAfterGC forces a collection and returns the live heap size.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLongHorizonSoakBudget256 is the unbounded-horizon soak: a 10k-round
// seeded run at observation budget 256 must (a) hold the retained set at
// exactly the budget with one eviction per round past it, (b) keep the
// live heap flat between mid-run and end of run — without the budget the
// Cholesky factor alone would grow to O(rounds²) floats — (c) land inside
// the pinned cumulative-regret envelope, and (d) reproduce byte-identical
// checkpoints on a rerun with the same config. The two runs execute
// concurrently (each is fully self-contained and deterministic), so the
// test's wall time is one run, not two.
func TestLongHorizonSoakBudget256(t *testing.T) {
	rounds := soakRounds()
	cfg := LongHorizonConfig{Rounds: rounds, Budget: 256, Seed: 1}

	var (
		wg       sync.WaitGroup
		runs     [2]*LongHorizonResult
		errs     [2]error
		heapMid  uint64
		heapEnd  uint64
		sampleAt = rounds / 2
	)
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			if i == 0 {
				c.onCheckpoint = func(p LongHorizonPoint) {
					if p.Round == sampleAt {
						heapMid = heapAfterGC()
					}
				}
			}
			runs[i], errs[i] = LongHorizon(c)
			if i == 0 {
				heapEnd = heapAfterGC()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	res := runs[0]
	if res.Retained != 256 {
		t.Errorf("retained %d observations, want exactly the budget 256", res.Retained)
	}
	if want := uint64(rounds - 256); res.Evictions != want {
		t.Errorf("evictions = %d, want %d (one per round past the budget)", res.Evictions, want)
	}
	if len(res.Checkpoints) != lhCheckpoints {
		t.Fatalf("recorded %d checkpoints, want %d", len(res.Checkpoints), lhCheckpoints)
	}
	prev := 0.0
	for _, p := range res.Checkpoints {
		if p.CumRegret < prev {
			t.Fatalf("cumulative regret decreased at round %d: %v < %v", p.Round, p.CumRegret, prev)
		}
		prev = p.CumRegret
	}
	if last := res.Checkpoints[len(res.Checkpoints)-1]; last.Round != rounds || last.CumRegret != res.CumRegret {
		t.Errorf("final checkpoint %+v does not match the run total (%d rounds, regret %v)",
			last, rounds, res.CumRegret)
	}
	// Pinned regret envelope for the canonical 10k/seed-1 soak (measured
	// 859349; the envelope leaves room for benign float-order changes
	// while still catching an eviction policy gone blind).
	if rounds == 10_000 {
		if res.CumRegret < 500_000 || res.CumRegret > 1_000_000 {
			t.Errorf("cumulative regret %v outside the pinned envelope [5e5, 1e6]", res.CumRegret)
		}
	}

	// (b) Flat memory: the live heap at the end of the run must sit within
	// a small constant of the mid-run sample. 4 MiB is generous slack for
	// GC jitter and the concurrent twin run, yet ~200× below what an
	// unbudgeted factor would hold by round 10k.
	if heapMid == 0 {
		t.Fatalf("mid-run heap sample never taken (sampleAt=%d, checkpoints=%v)", sampleAt, res.Checkpoints)
	}
	const slack = 4 << 20
	if heapEnd > heapMid+slack {
		t.Errorf("live heap grew from %d to %d bytes between round %d and round %d; budgeted soak must stay flat",
			heapMid, heapEnd, sampleAt, rounds)
	}

	// (d) Byte-identical rerun: every checkpoint, the final regret, and
	// the eviction count must match exactly — no tolerance.
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("identical configs produced different results:\nrun 1: %+v\nrun 2: %+v", runs[0], runs[1])
	}
}

// TestLongHorizonSweepShapes sanity-checks the sweep used for the
// EXPERIMENTS.md table at a toy scale: budgeted runs cap their retained
// sets, the exact run retains everything, and all entries render.
func TestLongHorizonSweepShapes(t *testing.T) {
	results, err := LongHorizonSweep([]int{0, 16, 32}, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if r := results[0]; r.Retained != 120 || r.Evictions != 0 {
		t.Errorf("exact run retained %d with %d evictions, want 120 and 0", r.Retained, r.Evictions)
	}
	for _, r := range results[1:] {
		if r.Retained != r.Budget {
			t.Errorf("budget %d retained %d", r.Budget, r.Retained)
		}
		if r.Evictions != uint64(120-r.Budget) {
			t.Errorf("budget %d evicted %d times, want %d", r.Budget, r.Evictions, 120-r.Budget)
		}
	}
	// Tighter budgets forget more and cannot beat looser ones here.
	if results[1].CumRegret < results[2].CumRegret {
		t.Logf("note: budget 16 regret %v below budget 32's %v at this toy scale",
			results[1].CumRegret, results[2].CumRegret)
	}
}

// TestLongHorizonRejectsBadConfig: rounds must be positive.
func TestLongHorizonRejectsBadConfig(t *testing.T) {
	if _, err := LongHorizon(LongHorizonConfig{Rounds: 0}); err == nil {
		t.Fatal("Rounds = 0 accepted")
	}
}

// TestRunWithObservationBudgetDeterministic wires the Scenario knob through
// the full cluster simulation: a budgeted Dragster run must complete and
// reproduce itself byte-for-byte, exactly like the unbudgeted runs that
// back the determinism suite.
func TestRunWithObservationBudgetDeterministic(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Scenario{
			Spec:                spec,
			Rates:               rates,
			Slots:               20,
			SlotSeconds:         60,
			Seed:                5,
			GPObservationBudget: 6,
		}, DragsterSaddle())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("budgeted runs diverged: same seed and budget must be byte-identical")
	}
}
