package core

import (
	"fmt"
	"testing"

	"dragster/internal/stats"
	"dragster/internal/telemetry"
)

// TestTracedDecideAnnotatesSpans: a traced decide annotates its osp step
// span with the targets y and its projection span with the projected
// tasks, and an untraced twin (which builds neither string) decides the
// same tasks.
func TestTracedDecideAnnotatesSpans(t *testing.T) {
	budget := func(cfg *Config) { cfg.TaskBudget = 8 }
	traced, plain := newController(t, budget), newController(t, budget)
	tr := telemetry.NewTracer()
	traced.SetTracer(tr)
	rng := stats.NewRNG(4)
	tasks := []int{1, 1}
	var wantY, wantTasks []string
	for slot := 0; slot < 6; slot++ {
		snap := snapshotAt(slot, 500, tasks, rng)
		next, _, diag, err := traced.DecideDetailed(snap)
		if err != nil {
			t.Fatal(err)
		}
		twin, _, _, err := plain.DecideDetailed(snap)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(next) != fmt.Sprint(twin) {
			t.Fatalf("slot %d: traced decide chose %v, untraced %v", slot, next, twin)
		}
		wantY = append(wantY, fmtFloats(diag.Y))
		wantTasks = append(wantTasks, fmt.Sprint(next))
		tasks = next
	}
	var gotY, gotTasks []string
	for _, s := range tr.Spans() {
		for _, a := range s.Attrs {
			switch {
			case s.Cat == "osp" && s.Name == "step" && a.Key == "y":
				gotY = append(gotY, a.Value)
			case s.Cat == "core" && s.Name == "project" && a.Key == "tasks":
				gotTasks = append(gotTasks, a.Value)
			}
		}
	}
	if fmt.Sprint(gotY) != fmt.Sprint(wantY) {
		t.Errorf("osp step y attributes %q, want %q", gotY, wantY)
	}
	if fmt.Sprint(gotTasks) != fmt.Sprint(wantTasks) {
		t.Errorf("project tasks attributes %q, want %q", gotTasks, wantTasks)
	}
}
