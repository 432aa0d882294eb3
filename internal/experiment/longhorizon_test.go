package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
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

// TestLongHorizonSoak is the unbounded-horizon soak: a 10k-round seeded
// run must (a) take one observation per round into at most one GP row per
// candidate, (b) keep the live heap flat between mid-run and end of run —
// the factor's order is bounded by the 24 candidates, not the rounds —
// (c) land inside the pinned cumulative-regret envelope, and (d)
// reproduce byte-identical checkpoints on a rerun with the same config.
// The two runs execute concurrently (each is fully self-contained and
// deterministic), so the test's wall time is one run, not two.
func TestLongHorizonSoak(t *testing.T) {
	rounds := soakRounds()
	cfg := LongHorizonConfig{Rounds: rounds, Seed: 1}

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
	if res.Observations != rounds {
		t.Errorf("observations = %d, want one per round (%d)", res.Observations, rounds)
	}
	if res.Rows < 1 || res.Rows > 24 {
		t.Errorf("GP holds %d rows, want 1..24 (one per candidate at most)", res.Rows)
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
	// 156893; the envelope leaves room for benign float-order changes
	// while still catching a posterior that stops learning).
	if rounds == 10_000 {
		if res.CumRegret < 120_000 || res.CumRegret > 220_000 {
			t.Errorf("cumulative regret %v outside the pinned envelope [1.2e5, 2.2e5]", res.CumRegret)
		}
	}

	// (b) Flat memory: the live heap at the end of the run must sit within
	// a small constant of the mid-run sample. 4 MiB is generous slack for
	// GC jitter and the concurrent twin run, yet far below what a factor
	// over every observation would hold by round 10k.
	if heapMid == 0 {
		t.Fatalf("mid-run heap sample never taken (sampleAt=%d, checkpoints=%v)", sampleAt, res.Checkpoints)
	}
	const slack = 4 << 20
	if heapEnd > heapMid+slack {
		t.Errorf("live heap grew from %d to %d bytes between round %d and round %d; the soak must stay flat",
			heapMid, heapEnd, sampleAt, rounds)
	}

	// (d) Byte-identical rerun: every checkpoint, the final regret and the
	// row count must match exactly — no tolerance.
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("identical configs produced different results:\nrun 1: %+v\nrun 2: %+v", runs[0], runs[1])
	}
}

// TestLongHorizonShapes sanity-checks the run behind the EXPERIMENTS.md
// row at a toy scale: every round is observed, the rows stay within the
// grid, the checkpoints cover the run, and the table renders.
func TestLongHorizonShapes(t *testing.T) {
	r, err := LongHorizon(LongHorizonConfig{Rounds: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Observations != 120 || r.Rows < 1 || r.Rows > 24 {
		t.Errorf("observations %d, rows %d; want 120 and 1..24", r.Observations, r.Rows)
	}
	if len(r.Checkpoints) != lhCheckpoints || r.Checkpoints[lhCheckpoints-1].Round != 120 {
		t.Errorf("checkpoints %+v do not cover the 120 rounds", r.Checkpoints)
	}
	var buf strings.Builder
	RenderLongHorizon(&buf, r)
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("table has %d lines, want title, header and one row:\n%s", lines, buf.String())
	}
}

// TestLongHorizonRejectsBadConfig: rounds must be positive.
func TestLongHorizonRejectsBadConfig(t *testing.T) {
	if _, err := LongHorizon(LongHorizonConfig{Rounds: 0}); err == nil {
		t.Fatal("Rounds = 0 accepted")
	}
}
