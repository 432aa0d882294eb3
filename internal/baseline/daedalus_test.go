package baseline

import (
	"testing"

	"dragster/internal/monitor"
)

func TestNewDaedalusValidation(t *testing.T) {
	if _, err := NewDaedalus(0, 0); err == nil {
		t.Error("MaxTasks 0 accepted")
	}
	if _, err := NewDaedalus(10, -1); err == nil {
		t.Error("negative budget accepted")
	}
	d, err := NewDaedalus(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if d.maxTasks != 10 || d.budget != 12 || d.Name() != "daedalus" {
		t.Errorf("bounds not applied: %+v", d)
	}
}

func TestDaedalusScalesAllOperators(t *testing.T) {
	d, err := NewDaedalus(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decide(snap(
		// Hot: 4 tasks at 0.95 util → wants ceil(4·0.95/0.75) = 6.
		monitor.OperatorMetrics{Name: "a", Tasks: 4, Util: 0.95},
		// In band: 3 tasks at 0.7 → ceil(2.8) = 3, unchanged.
		monitor.OperatorMetrics{Name: "b", Tasks: 3, Util: 0.7},
		// Idle: 6 tasks at 0.2 → ceil(1.6) = 2, step-capped to 4.
		monitor.OperatorMetrics{Name: "c", Tasks: 6, Util: 0.2},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Unlike Dhalion, every operator moves in the same slot.
	if got[0] != 6 || got[1] != 3 || got[2] != 4 {
		t.Errorf("Decide = %v, want [6 3 4]", got)
	}
}

func TestDaedalusEscalatesBackpressure(t *testing.T) {
	d, err := NewDaedalus(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Saturated operator whose util model alone would keep it in place
	// (util ≈ target) must still escalate.
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 4, Util: 0.75, Backlog: 5000, Backpressured: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("backpressured op = %d tasks, want 5", got[0])
	}
}

func TestDaedalusBoundedStep(t *testing.T) {
	d, err := NewDaedalus(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decide(snap(
		// Model wants ceil(7·1.0/0.75) = 10; the step cap keeps the move
		// at +2.
		monitor.OperatorMetrics{Name: "a", Tasks: 7, Util: 1, Backpressured: true},
		// Scale-down is bounded too: 9 tasks at 0.1 util wants 2, gets 7.
		monitor.OperatorMetrics{Name: "b", Tasks: 9, Util: 0.1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[1] != 7 {
		t.Errorf("Decide = %v, want [9 7]", got)
	}
}

func TestDaedalusRespectsBudget(t *testing.T) {
	d, err := NewDaedalus(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Both hot: each wants ceil(4·0.95/0.75) = 6, step-capped at 6 —
	// over the 9-task budget by three. Revocations come from the
	// smaller-backlog operator first.
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 4, Util: 0.95, Backlog: 900, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 4, Util: 0.95, Backlog: 100, Backpressured: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0]+got[1] > 9 {
		t.Fatalf("Decide = %v exceeds budget 9", got)
	}
	if got[0] != 5 || got[1] != 4 {
		t.Errorf("Decide = %v, want [5 4] (trim takes from the smaller backlog)", got)
	}
	// A budget already exceeded by the *current* allocation never forces
	// scale-downs below it.
	tight, err := NewDaedalus(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err = tight.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 3, Util: 0.8, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 3, Util: 0.8, Backpressured: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 3 {
		t.Errorf("Decide = %v, want current [3 3] kept under infeasible budget", got)
	}
	if _, err := d.Decide(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
