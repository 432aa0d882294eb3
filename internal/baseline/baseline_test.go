package baseline

import (
	"testing"

	"dragster/internal/monitor"
)

func snap(ops ...monitor.OperatorMetrics) *monitor.Snapshot {
	return &monitor.Snapshot{Operators: ops, SourceRates: []float64{100}}
}

func TestNewDhalionValidation(t *testing.T) {
	if _, err := NewDhalion(0, 0); err == nil {
		t.Error("MaxTasks 0 accepted")
	}
	if _, err := NewDhalion(10, -1); err == nil {
		t.Error("negative budget accepted")
	}
	d, err := NewDhalion(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.maxTasks != 10 || d.budget != 5 || d.Name() != "dhalion" {
		t.Errorf("bounds not applied: %+v", d)
	}
}

func TestDhalionScalesUpWorstBackpressure(t *testing.T) {
	d, err := NewDhalion(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 2, Util: 0.99, Backlog: 100, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 3, Util: 0.99, Backlog: 900, Backpressured: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	// One operator per slot, the one with the biggest backlog.
	if got[0] != 2 || got[1] != 4 {
		t.Errorf("Decide = %v, want [2 4]", got)
	}
}

func TestDhalionRespectsMaxTasksAndBudget(t *testing.T) {
	d, err := NewDhalion(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// At max tasks: no further scale-up even when backpressured.
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 4, Util: 1, Backlog: 100, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 1, Util: 0.8},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 1 {
		t.Errorf("max-task scale-up happened: %v", got)
	}
	// Budget exhausted: a backpressured operator cannot grow.
	got, err = d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 3, Util: 1, Backlog: 100, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 3, Util: 0.9},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 3 {
		t.Errorf("budget-violating scale-up: %v", got)
	}
}

func TestDhalionRemovesIdleTasksEverywhere(t *testing.T) {
	d, err := NewDhalion(10, 0) // idle threshold 0.7
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 5, Util: 0.3},
		monitor.OperatorMetrics{Name: "b", Tasks: 4, Util: 0.5},
		monitor.OperatorMetrics{Name: "c", Tasks: 2, Util: 0.9},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 3 || got[2] != 2 {
		t.Errorf("Decide = %v, want [4 3 2]", got)
	}
	// minTasks floor.
	got, err = d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 1, Util: 0.1},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("went below minTasks: %v", got)
	}
}

func TestDhalionBackpressureBeatsIdle(t *testing.T) {
	d, err := NewDhalion(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One backpressured op + one idle op: the resolution this slot is the
	// scale-up; idleness waits.
	got, err := d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 2, Util: 1, Backlog: 10, Backpressured: true},
		monitor.OperatorMetrics{Name: "b", Tasks: 5, Util: 0.2},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 5 {
		t.Errorf("Decide = %v, want [3 5]", got)
	}
}

func TestDhalionNilSnapshot(t *testing.T) {
	d, err := NewDhalion(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestNewDS2Validation(t *testing.T) {
	if _, err := NewDS2(0); err == nil {
		t.Error("MaxTasks 0 accepted")
	}
	d, err := NewDS2(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ds2" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestDS2ProportionalScaling(t *testing.T) {
	d, err := NewDS2(10)
	if err != nil {
		t.Fatal(err)
	}
	// 2 tasks at full utilization process 100/s out of a required 300/s
	// (selectivity 1): per-task true rate 50 → need ceil(300·1.1/50) = 7.
	got, err := d.Decide(snap(monitor.OperatorMetrics{
		Name: "a", Tasks: 2, InRate: 300, OutRate: 100, ConsumedRate: 100, Util: 1.0,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("Decide = %v, want [7]", got)
	}
}

func TestDS2ScalesDownOverProvisioned(t *testing.T) {
	d, err := NewDS2(10)
	if err != nil {
		t.Fatal(err)
	}
	// 8 tasks at 25% utilization: per-task true rate = 100/0.25/8 = 50;
	// required 100·1.1 = 110 → 3 tasks (plus drain ≈ 0 backlog).
	got, err := d.Decide(snap(monitor.OperatorMetrics{
		Name: "a", Tasks: 8, InRate: 100, OutRate: 100, ConsumedRate: 100, Util: 0.25,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Errorf("Decide = %v, want [3]", got)
	}
}

func TestDS2BudgetsBacklogDrain(t *testing.T) {
	d, err := NewDS2(10)
	if err != nil {
		t.Fatal(err)
	}
	// Same as above but with a 6000-tuple backlog: +100/s drain budget at
	// DrainSeconds 60 → required 210·1.1 = 231 → 5 tasks.
	got, err := d.Decide(snap(monitor.OperatorMetrics{
		Name: "a", Tasks: 8, InRate: 100, OutRate: 100, ConsumedRate: 100, Util: 0.25, Backlog: 6000,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("Decide = %v, want [5]", got)
	}
}

func TestDS2Bounds(t *testing.T) {
	d, err := NewDS2(6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decide(snap(monitor.OperatorMetrics{
		Name: "a", Tasks: 2, InRate: 10000, OutRate: 10, ConsumedRate: 10, Util: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Errorf("MaxTasks cap failed: %v", got)
	}
	// Zero tasks bootstraps to MinTasks; zero output keeps current.
	got, err = d.Decide(snap(
		monitor.OperatorMetrics{Name: "a", Tasks: 0},
		monitor.OperatorMetrics{Name: "b", Tasks: 3, OutRate: 0, Util: 0.5},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("bounds handling = %v, want [1 3]", got)
	}
	if _, err := d.Decide(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
