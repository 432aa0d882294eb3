package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"dragster/internal/monitor"
	"dragster/internal/stats"
	"dragster/internal/store"
)

// capCurve2D is the hidden 2-D capacity model: concave in tasks, sublinear
// in CPU relative to the 1000m reference.
func capCurve2D(tasks, cpuMilli int) float64 {
	return 100 * math.Pow(float64(tasks), 0.9) * math.Pow(float64(cpuMilli)/1000, 0.8)
}

func snapshot2D(slot int, rate float64, tasks, cpu []int, rng *stats.RNG) *monitor.Snapshot {
	capM := capCurve2D(tasks[0], cpu[0])
	capS := capCurve2D(tasks[1], cpu[1])
	outM := math.Min(capM, 2*rate)
	outS := math.Min(capS, outM)
	noise := func() float64 { return 1 + rng.Normal(0, 0.01) }
	return &monitor.Snapshot{
		Slot:        slot,
		Throughput:  outS,
		SourceRates: []float64{rate},
		Operators: []monitor.OperatorMetrics{
			{Name: "map", Tasks: tasks[0], CPUMilli: cpu[0], InRate: rate, OutRate: outM,
				Util: math.Min(1, outM/capM), CapacityObs: capM * noise()},
			{Name: "shuffle", Tasks: tasks[1], CPUMilli: cpu[1], InRate: outM, OutRate: outS,
				Util: math.Min(1, outS/capS), CapacityObs: capS * noise()},
		},
	}
}

func TestDecideResources2DConverges(t *testing.T) {
	grid, err := store.Grid2D(1, 8, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, func(cfg *Config) {
		cfg.Candidates = [][][]float64{grid, grid}
	})
	rng := stats.NewRNG(12)
	tasks := []int{1, 1}
	cpu := []int{1000, 1000}
	// Demand 400 output/s per operator (rate 200 × sel 2). Reachable e.g.
	// at (4 tasks, 1000m) ≈ 348 — not quite — or (4, 1500)=482,
	// (5, 1000)=425, (3, 2000)=465...
	for slot := 0; slot < 30; slot++ {
		snap := snapshot2D(slot, 200, tasks, cpu, rng)
		nextTasks, nextCPU, diag, err := c.DecideDetailed(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(diag.Y) != 2 {
			t.Fatal("missing diagnostics")
		}
		for i := range nextCPU {
			if nextCPU[i] == 0 {
				t.Fatalf("slot %d: 2-D candidates produced no CPU for op %d", slot, i)
			}
		}
		tasks, cpu = nextTasks, nextCPU
	}
	for i := range tasks {
		got := capCurve2D(tasks[i], cpu[i])
		if got < 0.9*400 {
			t.Errorf("op %d at (%d tasks, %dm) capacity %.0f ≪ demand 400", i, tasks[i], cpu[i], got)
		}
		// The economical property: not wildly over-provisioned.
		if got > 2.2*400 {
			t.Errorf("op %d grossly over-provisioned: (%d, %dm) → %.0f", i, tasks[i], cpu[i], got)
		}
	}
}

// TestDecideDetailedCPUAxis: DecideDetailed returns nil CPU on a 1-D task
// grid, a CPU allocation per operator on the 2-D grid, and 0 for the
// operators without a CPU axis when only some have one.
func TestDecideDetailedCPUAxis(t *testing.T) {
	grid2D, err := store.Grid2D(1, 8, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	grid1D, err := store.TaskGrid(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cands   [][][]float64
		wantCPU []bool // nil: no CPU slice at all
	}{
		{"1-D", [][][]float64{grid1D, grid1D}, nil},
		{"2-D", [][][]float64{grid2D, grid2D}, []bool{true, true}},
		{"mixed", [][][]float64{grid2D, grid1D}, []bool{true, false}},
	} {
		c := newController(t, func(cfg *Config) { cfg.Candidates = tc.cands })
		snap := snapshot2D(0, 100, []int{1, 1}, []int{1000, 1000}, stats.NewRNG(13))
		tasks, cpu, _, err := c.DecideDetailed(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != 2 {
			t.Fatalf("%s: tasks = %v", tc.name, tasks)
		}
		if tc.wantCPU == nil {
			if cpu != nil {
				t.Errorf("%s: CPU = %v, want nil", tc.name, cpu)
			}
			continue
		}
		if len(cpu) != len(tc.wantCPU) {
			t.Fatalf("%s: CPU = %v, want one entry per operator", tc.name, cpu)
		}
		for i, want := range tc.wantCPU {
			if got := cpu[i] > 0; got != want {
				t.Errorf("%s: op %d CPU = %dm, want CPU axis %v", tc.name, i, cpu[i], want)
			}
		}
	}
}

// TestRefitOnlyWithCPUAxis: an operator whose candidates carry a CPU axis
// re-fits its GP kernel after multiDimRefitEvery observations; one on the
// 1-D task grid keeps its prior kernel.
func TestRefitOnlyWithCPUAxis(t *testing.T) {
	grid2D, err := store.Grid2D(1, 8, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	grid1D, err := store.TaskGrid(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, func(cfg *Config) { cfg.Candidates = [][][]float64{grid2D, grid1D} })
	prior2D, prior1D := c.Searcher(0).Regressor().Kernel(), c.Searcher(1).Regressor().Kernel()
	for n := 1; n <= multiDimRefitEvery; n++ {
		if err := c.Searcher(0).Observe([]float64{float64(n), 1000}, capCurve2D(n, 1000)); err != nil {
			t.Fatal(err)
		}
		if err := c.Searcher(1).Observe([]float64{float64(n)}, capCurve2D(n, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(c.Searcher(0).Regressor().Kernel(), prior2D) {
		t.Error("2-D operator kept its prior kernel")
	}
	if got := c.Searcher(1).Regressor().Kernel(); !reflect.DeepEqual(got, prior1D) {
		t.Errorf("1-D operator re-fit its kernel to %v, prior %v", got, prior1D)
	}
}

func TestConfigForCPUMatching(t *testing.T) {
	grid, err := store.Grid2D(1, 4, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, func(cfg *Config) {
		cfg.Candidates = [][][]float64{grid, grid}
	})
	k, v := c.configFor(0, 3, 1500)
	if v[0] != 3 || v[1] != 1500 || k < 0 || !slices.Equal(grid[k], v) {
		t.Errorf("configFor(3, 1500) = %d, %v", k, v)
	}
	// Unknown CPU: nearest candidate's CPU is preserved.
	_, v = c.configFor(0, 2, 0)
	if v[0] != 2 || v[1] < 500 || v[1] > 2000 {
		t.Errorf("configFor(2, unknown) = %v", v)
	}
	// nearestWithTasks keeps the non-task dims close to the reference.
	v = c.nearestWithTasks(0, 4, []float64{9, 2000})
	if v[0] != 4 || v[1] != 2000 {
		t.Errorf("nearestWithTasks = %v", v)
	}
}
