package experiment

import (
	"slices"
	"testing"
)

// TestKeptDecisionSurvivesNextDecide: the level-1 targets a trace row
// keeps and the task counts a tenant decided are the caller's. The
// controller decides the next slot over its own scratch, so a row or a
// decision kept from one slot must read the same after the next.
func TestKeptDecisionSurvivesNextDecide(t *testing.T) {
	r, err := NewRunner(chaosScenario(t, nil, 6), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	var targets, wantTargets []float64
	var desired, wantDesired []int
	for slot := 0; !r.Done(); slot++ {
		tr, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(targets, wantTargets) || !slices.Equal(desired, wantDesired) {
			t.Fatalf("slot %d: kept targets %v and tasks %v changed to %v and %v by this decide",
				slot, wantTargets, wantDesired, targets, desired)
		}
		targets, desired = tr.TargetY, r.t.Desired()
		if len(targets) == 0 || len(desired) == 0 {
			t.Fatalf("slot %d: decision without targets %v or tasks %v", slot, targets, desired)
		}
		wantTargets, wantDesired = slices.Clone(targets), slices.Clone(desired)
	}
}
