package core

import (
	"testing"

	"dragster/internal/stats"
)

// TestWarmDecideAllocatesOnlyItsDecision: once a controller has decided
// a dozen slots, DecideDetailed allocates only the task slice it hands
// its caller, with and without a task budget. Every other buffer of the
// pass — the dual update's evaluation, the bottleneck set, the chosen
// configurations, the projection's and the rebalancer's scratch, the
// diagnostics — is the controller's own.
func TestWarmDecideAllocatesOnlyItsDecision(t *testing.T) {
	for _, budget := range []int{0, 8} {
		c := newController(t, func(cfg *Config) { cfg.TaskBudget = budget })
		rng := stats.NewRNG(4)
		tasks := []int{1, 1}
		slot := 0
		for ; slot < 12; slot++ {
			next, err := c.Decide(snapshotAt(slot, 500, tasks, rng))
			if err != nil {
				t.Fatal(err)
			}
			tasks = next
		}
		snap := snapshotAt(slot, 500, tasks, rng)
		const decision = 1 // the task slice
		if n := testing.AllocsPerRun(20, func() {
			snap.Slot++
			if _, _, _, err := c.DecideDetailed(snap); err != nil {
				t.Fatal(err)
			}
		}); n != decision {
			t.Errorf("budget %d: a warm DecideDetailed allocates %v times, want %d", budget, n, decision)
		}
		if c.StaleSkips() != 0 {
			t.Fatalf("budget %d: %d decisions skipped as stale", budget, c.StaleSkips())
		}
	}
}
