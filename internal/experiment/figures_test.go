package experiment

import (
	"bytes"
	"strings"
	"testing"

	"dragster/internal/osp"
	"dragster/internal/workload"
)

// Figure tests run with 1-minute slots to stay fast; the cmd/benchmark
// binary uses the paper's 10-minute slots.

func TestFig4NoBudget(t *testing.T) {
	r, err := Fig4(0, 20, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimum.Tasks[0] != 9 || r.Optimum.Tasks[1] != 7 {
		t.Errorf("optimum = %v", r.Optimum.Tasks)
	}
	if len(r.Heatmap) != 10 || len(r.Heatmap[0]) != 10 {
		t.Fatalf("heatmap shape %dx%d", len(r.Heatmap), len(r.Heatmap[0]))
	}
	// The landscape is brightest at the top-right corner region.
	if r.Heatmap[9][9] < r.Heatmap[0][0] {
		t.Error("heatmap not increasing toward larger configs")
	}
	for _, name := range PolicyOrder {
		if len(r.Paths[name]) != 20 {
			t.Errorf("%s path length %d", name, len(r.Paths[name]))
		}
	}
	// Both Dragster variants must converge, and at least as fast as
	// Dhalion (the 1.8–2.2X speedup claim at full scale).
	dh := r.ConvergenceMinutes["dhalion"]
	sd := r.ConvergenceMinutes["dragster-saddle"]
	if sd < 0 {
		t.Fatal("dragster-saddle never converged")
	}
	if dh > 0 && sd > dh {
		t.Errorf("dragster-saddle (%v) slower than dhalion (%v)", sd, dh)
	}
	var buf bytes.Buffer
	RenderFig4(&buf, r)
	out := buf.String()
	if !strings.Contains(out, "no budget") || !strings.Contains(out, "dragster-saddle") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFig4Budget(t *testing.T) {
	r, err := Fig4(13, 20, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Budgeted optimum uses at most 13 tasks.
	if r.Optimum.TotalTasks > 13 {
		t.Errorf("budget optimum uses %d tasks", r.Optimum.TotalTasks)
	}
	// Every policy's trajectory must respect the budget after slot 0.
	for _, name := range PolicyOrder {
		for slot, p := range r.Paths[name] {
			if slot > 0 && p.MapTasks+p.ShuffleTasks > 13 {
				t.Errorf("%s exceeded budget at slot %d: (%d,%d)", name, slot, p.MapTasks, p.ShuffleTasks)
			}
		}
	}
	// The headline Fig. 4(d) claim: Dragster's final throughput beats
	// Dhalion's under the tight budget.
	if r.FinalThroughput["dragster-saddle"] <= r.FinalThroughput["dhalion"] {
		t.Errorf("no budgeted gap: dragster %v vs dhalion %v",
			r.FinalThroughput["dragster-saddle"], r.FinalThroughput["dhalion"])
	}
	var buf bytes.Buffer
	RenderFig4(&buf, r)
	if !strings.Contains(buf.String(), "budget 13") {
		t.Error("render missing budget header")
	}
}

func TestFig6AndTable2(t *testing.T) {
	// 2 phases × 8 slots.
	r, err := Fig6(16, 8, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyOrder {
		if len(r.Throughput[name]) != 16 {
			t.Errorf("%s series length %d", name, len(r.Throughput[name]))
		}
		if len(r.Phases[name]) != 2 {
			t.Errorf("%s phases %d", name, len(r.Phases[name]))
		}
	}
	if r.StaticMeanThroughput <= 0 {
		t.Error("static reference missing")
	}
	// Elastic policies must beat the static (1,1) configuration by a lot
	// (paper: 5X–6X).
	var dragMean float64
	for _, v := range r.Throughput["dragster-saddle"] {
		dragMean += v
	}
	dragMean /= float64(len(r.Throughput["dragster-saddle"]))
	if dragMean < 2*r.StaticMeanThroughput {
		t.Errorf("elastic gain too small: %v vs static %v", dragMean, r.StaticMeanThroughput)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, r)
	RenderTable2(&buf, r)
	out := buf.String()
	for _, want := range []string{"Fig. 6", "Table 2", "processed tuples", "cost per 1e9"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig7AndTable3(t *testing.T) {
	r, err := Fig7(24, 12, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyOrder {
		if len(r.Throughput[name]) != 24 {
			t.Errorf("%s series length %d", name, len(r.Throughput[name]))
		}
		if len(r.Phases[name]) != 2 {
			t.Errorf("%s phases %d", name, len(r.Phases[name]))
		}
	}
	// After the load step the optimum rises.
	ph := r.Phases["dragster-saddle"]
	if ph[1].OptimalThroughput <= ph[0].OptimalThroughput {
		t.Error("load step did not raise the optimum")
	}
	var buf bytes.Buffer
	RenderFig7(&buf, r)
	RenderTable3(&buf, r)
	out := buf.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "proc. rate") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestRegretRunSublinear(t *testing.T) {
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RegretRun(spec, osp.SaddlePoint, 60, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.T != 60 || len(r.AvgRegret) != 60 {
		t.Fatalf("series length %d", len(r.AvgRegret))
	}
	// Average regret late in the run must be well below the early average
	// (sub-linear growth).
	if r.SublinearityRegret >= 0.9 {
		t.Errorf("regret does not look sub-linear: ratio %v", r.SublinearityRegret)
	}
	if r.Regret > r.RegretBound {
		t.Errorf("realized regret %v exceeds Theorem-1 bound %v", r.Regret, r.RegretBound)
	}
	if r.PositiveFit > r.FitBound {
		t.Errorf("positive fit %v exceeds fit bound %v", r.PositiveFit, r.FitBound)
	}
	if _, err := RegretRun(spec, osp.SaddlePoint, 3, 60, 3); err == nil {
		t.Error("tiny T accepted")
	}
	var buf bytes.Buffer
	RenderRegret(&buf, r)
	if !strings.Contains(buf.String(), "sub-linearity") {
		t.Error("render missing content")
	}
}

func TestPolicySetMatchesOrder(t *testing.T) {
	set := PolicySet()
	if len(set) != len(PolicyOrder) {
		t.Fatalf("set size %d vs order %d", len(set), len(PolicyOrder))
	}
	for _, name := range PolicyOrder {
		if _, ok := set[name]; !ok {
			t.Errorf("policy %q missing from set", name)
		}
	}
}
