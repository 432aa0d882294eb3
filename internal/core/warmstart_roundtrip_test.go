package core

import (
	"bytes"
	"reflect"
	"testing"

	"dragster/internal/stats"
	"dragster/internal/store"
)

// TestWarmStartSurvivesStoreRoundTrip is the crash-recovery contract of
// the history database: a controller rebuilt from a store that was
// serialized with Snapshot and read back with Restore must reproduce the
// same next decision as one rebuilt from the original store. The GPs are
// replayed from the drained records (Config.History) on construction, so
// byte-faithful persistence is exactly what makes a restart transparent
// to the optimizer.
func TestWarmStartSurvivesStoreRoundTrip(t *testing.T) {
	// Populate a history DB with a live closed-loop run.
	db := store.New()
	live := newController(t, func(cfg *Config) { cfg.DB = db })
	rng := stats.NewRNG(42)
	tasks := []int{1, 1}
	for slot := 0; slot < 8; slot++ {
		next, err := live.Decide(snapshotAt(slot, 300, tasks, rng))
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	if db.Len() == 0 {
		t.Fatal("live run appended no history")
	}

	// Round-trip the store through its wire format.
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := store.New()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != db.Len() {
		t.Fatalf("restored %d records, want %d", restored.Len(), db.Len())
	}

	// Two fresh controllers, identical but for which store seeded them.
	probe := snapshotAt(8, 300, tasks, stats.NewRNG(7))
	var decisions [][]int
	var targets []float64
	for _, seedDB := range []*store.DB{db, restored} {
		history := seedDB.Drain()
		c := newController(t, func(cfg *Config) { cfg.History = history })
		next, _, diag, err := c.DecideDetailed(probe)
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, next)
		targets = append(targets, diag.Y...)
	}
	if !reflect.DeepEqual(decisions[0], decisions[1]) {
		t.Errorf("next decision diverged after round trip: %v vs %v", decisions[0], decisions[1])
	}
	if n := len(targets) / 2; !reflect.DeepEqual(targets[:n], targets[n:]) {
		t.Errorf("level-1 targets diverged after round trip: %v vs %v", targets[:n], targets[n:])
	}
}
