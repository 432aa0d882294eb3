package core

import (
	"math"
	"slices"
	"testing"

	"dragster/internal/stats"
	"dragster/internal/telemetry"
)

// TestStaleSnapshotSkipsRound feeds the controller the same slot twice:
// the repeat must hold the current configuration without re-observing the
// (already-seen) samples or advancing the optimizer.
func TestStaleSnapshotSkipsRound(t *testing.T) {
	cs := telemetry.NewRegistry()
	c := newController(t, func(cfg *Config) { cfg.Counters = cs })
	rng := stats.NewRNG(3)

	if _, err := c.Decide(snapshotAt(0, 500, []int{2, 2}, rng)); err != nil {
		t.Fatal(err)
	}
	obs := c.Searcher(0).Observations()

	got, err := c.Decide(snapshotAt(0, 500, []int{2, 2}, rng))
	if err != nil {
		t.Fatalf("stale snapshot errored instead of skipping: %v", err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Errorf("stale round decision = %v, want the running config [2 2]", got)
	}
	if c.StaleSkips() != 1 {
		t.Errorf("StaleSkips = %d, want 1", c.StaleSkips())
	}
	if cv := cs.CounterValue("core_stale_snapshot_skips"); cv != 1 {
		t.Errorf("core_stale_snapshot_skips = %d, want 1", cv)
	}
	if c.Searcher(0).Observations() != obs {
		t.Errorf("stale snapshot fed the GP: %d observations, had %d", c.Searcher(0).Observations(), obs)
	}

	// An older slot is just as stale as a repeat.
	if _, err := c.Decide(snapshotAt(0, 500, []int{2, 2}, rng)); err != nil {
		t.Fatal(err)
	}
	if c.StaleSkips() != 2 {
		t.Errorf("StaleSkips after regression = %d, want 2", c.StaleSkips())
	}

	// A fresh slot resumes normal decisions.
	if _, err := c.Decide(snapshotAt(1, 500, []int{2, 2}, rng)); err != nil {
		t.Fatal(err)
	}
	if c.Searcher(0).Observations() != obs+1 {
		t.Errorf("fresh slot not observed: %d, want %d", c.Searcher(0).Observations(), obs+1)
	}
}

// TestNonFiniteObservationRejected ensures NaN/Inf metrics never reach
// the GPs: they are counted, the operator's running config is still
// tracked, and the round proceeds on the remaining operators.
func TestNonFiniteObservationRejected(t *testing.T) {
	cs := telemetry.NewRegistry()
	c := newController(t, func(cfg *Config) { cfg.Counters = cs })
	rng := stats.NewRNG(3)

	snap := snapshotAt(0, 500, []int{2, 2}, rng)
	snap.Operators[0].CapacityObs = math.NaN()
	if _, err := c.Decide(snap); err != nil {
		t.Fatalf("NaN capacity crashed the round: %v", err)
	}
	if got := c.Searcher(0).Observations(); got != 0 {
		t.Errorf("NaN capacity reached the GP: %d observations", got)
	}
	if got := c.Searcher(1).Observations(); got != 1 {
		t.Errorf("healthy operator not observed: %d", got)
	}
	if cv := cs.CounterValue("core_rejected_capacity_obs"); cv != 1 {
		t.Errorf("core_rejected_capacity_obs = %d, want 1", cv)
	}

	snap2 := snapshotAt(1, 500, []int{2, 2}, rng)
	snap2.Operators[1].Util = math.Inf(1)
	if _, err := c.Decide(snap2); err != nil {
		t.Fatalf("Inf utilization crashed the round: %v", err)
	}
	if got := c.Searcher(1).Observations(); got != 1 {
		t.Errorf("Inf utilization reached the GP: %d observations", got)
	}
	if cv := cs.CounterValue("core_rejected_capacity_obs"); cv != 2 {
		t.Errorf("core_rejected_capacity_obs = %d, want 2", cv)
	}
}

// TestRejectedCapacityEntersDualsAsZero: a rejected (NaN) capacity
// observation enters the dual update as zero observed capacity, also
// when the slot before observed a finite one. A twin controller that
// sees 0 in its place — also never observed, since it is not positive —
// must reach the same duals and decision.
func TestRejectedCapacityEntersDualsAsZero(t *testing.T) {
	rejected, zero := newController(t), newController(t)
	for slot := 0; slot < 3; slot++ {
		var decided [2][]int
		for k, c := range []*Controller{rejected, zero} {
			snap := snapshotAt(slot, 20, []int{2, 2}, stats.NewRNG(int64(slot)))
			if slot == 2 {
				snap.Operators[0].CapacityObs = []float64{math.NaN(), 0}[k]
			}
			next, err := c.Decide(snap)
			if err != nil {
				t.Fatal(err)
			}
			decided[k] = next
		}
		if !slices.Equal(rejected.Duals(), zero.Duals()) || !slices.Equal(decided[0], decided[1]) {
			t.Fatalf("slot %d: NaN capacity gives duals %v and decision %v, zero capacity %v and %v",
				slot, rejected.Duals(), decided[0], zero.Duals(), decided[1])
		}
	}
}
