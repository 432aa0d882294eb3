package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/stats"
	"dragster/internal/store"
	"dragster/internal/ucb"
)

// chain builds source → map(sel 2) → shuffle(sel 1) → sink.
func chain(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, mp, sh, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(2), dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newController(t testing.TB, mods ...func(*Config)) *Controller {
	t.Helper()
	cfg := Config{
		Graph:    chain(t),
		YMax:     1000,
		NoiseVar: 100,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// capCurve is the hidden capacity model the controller must learn.
func capCurve(tasks int) float64 { return 100 * math.Pow(float64(tasks), 0.9) }

// snapshotAt fabricates a monitor snapshot for the chain running `tasks`
// under source rate `rate`, with capacities from capCurve.
func snapshotAt(slot int, rate float64, tasks []int, rng *stats.RNG) *monitor.Snapshot {
	capM := capCurve(tasks[0])
	capS := capCurve(tasks[1])
	outM := math.Min(capM, 2*rate)
	outS := math.Min(capS, outM)
	utilM := math.Min(1, outM/capM)
	utilS := math.Min(1, outS/capS)
	noise := func() float64 { return 1 + rng.Normal(0, 0.01) }
	return &monitor.Snapshot{
		Slot:        slot,
		Throughput:  outS,
		SourceRates: []float64{rate},
		Operators: []monitor.OperatorMetrics{
			{Name: "map", Tasks: tasks[0], InRate: rate, OutRate: outM, Util: utilM, CapacityObs: capM * noise()},
			{Name: "shuffle", Tasks: tasks[1], InRate: outM, OutRate: outS, Util: utilS, CapacityObs: capS * noise()},
		},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"zero ymax", func(c *Config) { c.YMax = 0 }},
		{"nan ymax", func(c *Config) { c.YMax = math.NaN() }},
		{"inf ymax", func(c *Config) { c.YMax = math.Inf(1) }},
		{"zero noise", func(c *Config) { c.NoiseVar = 0 }},
		{"wrong candidates", func(c *Config) { c.Candidates = [][][]float64{{{1}}} }},
		{"negative budget", func(c *Config) { c.TaskBudget = -1 }},
		{"tiny budget", func(c *Config) { c.TaskBudget = 1 }},
	}
	for _, tc := range cases {
		cfg := Config{Graph: chain(t), YMax: 1000, NoiseVar: 100}
		tc.mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNameReflectsMethod(t *testing.T) {
	c := newController(t)
	if c.Name() != "dragster-saddle-point" {
		t.Errorf("Name = %q", c.Name())
	}
	c2 := newController(t, func(cfg *Config) { cfg.Method = osp.GradientDescent })
	if !strings.Contains(c2.Name(), "gradient") {
		t.Errorf("Name = %q", c2.Name())
	}
}

func TestDecideValidation(t *testing.T) {
	c := newController(t)
	if _, err := c.Decide(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := c.Decide(&monitor.Snapshot{}); err == nil {
		t.Error("wrong operator count accepted")
	}
	snap := snapshotAt(0, 100, []int{1, 1}, stats.NewRNG(1))
	snap.SourceRates = nil
	if _, err := c.Decide(snap); err == nil {
		t.Error("missing source rates accepted")
	}
}

func TestDecideConvergesToDemand(t *testing.T) {
	// Closed loop against the synthetic capCurve plant: rate 300 → map
	// demand 600 → needs ~8 tasks (capCurve(8)=649); shuffle demand 600 →
	// same. The controller should settle there, not at 10/10.
	c := newController(t)
	rng := stats.NewRNG(2)
	tasks := []int{1, 1}
	for slot := 0; slot < 25; slot++ {
		snap := snapshotAt(slot, 300, tasks, rng)
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	for i, n := range tasks {
		// The 10% bottleneck tolerance means capacity may legitimately sit
		// slightly under demand; require near-coverage, not full coverage.
		if capCurve(n) < 0.9*600 {
			t.Errorf("op %d settled at %d tasks (cap %.0f ≪ demand 600)", i, n, capCurve(n))
		}
		if n > 9 {
			t.Errorf("op %d over-provisioned at %d tasks", i, n)
		}
	}
}

func TestDecideScalesDownAfterLoadDrop(t *testing.T) {
	c := newController(t)
	rng := stats.NewRNG(3)
	tasks := []int{1, 1}
	for slot := 0; slot < 20; slot++ {
		snap := snapshotAt(slot, 300, tasks, rng)
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	high := append([]int(nil), tasks...)
	for slot := 20; slot < 40; slot++ {
		snap := snapshotAt(slot, 80, tasks, rng) // demand 160 → ~2 tasks
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	if tasks[0] >= high[0] || tasks[1] >= high[1] {
		t.Errorf("no scale down: high %v → low %v", high, tasks)
	}
	if capCurve(tasks[0]) < 160 {
		t.Errorf("scaled below demand: %v", tasks)
	}
}

func TestDecideRespectsBudget(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.TaskBudget = 8 })
	rng := stats.NewRNG(4)
	tasks := []int{1, 1}
	for slot := 0; slot < 15; slot++ {
		snap := snapshotAt(slot, 500, tasks, rng) // demand far above budget capacity
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		if next[0]+next[1] > 8 {
			t.Fatalf("slot %d: budget violated: %v", slot, next)
		}
		tasks = next
	}
	// Under overload the budget should be fully used and roughly balanced
	// (a 2:1 selectivity chain wants comparable capacities).
	if tasks[0]+tasks[1] < 7 {
		t.Errorf("budget underused under overload: %v", tasks)
	}
	if tasks[0] < 2 || tasks[1] < 2 {
		t.Errorf("budget not balanced across operators: %v", tasks)
	}
}

func TestDecideDetailedDiagnostics(t *testing.T) {
	c := newController(t)
	rng := stats.NewRNG(5)
	snap := snapshotAt(0, 100, []int{1, 1}, rng)
	_, diag, err := c.DecideDetailed(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Y) != 2 {
		t.Fatalf("diag targets %v", diag.Y)
	}
	// Map demand 200 with headroom → target ≥ 200.
	if diag.Y[0] < 200 {
		t.Errorf("map target %v below demand", diag.Y[0])
	}
	if len(diag.Bottlenecks) == 0 {
		t.Error("under-provisioned start produced no bottlenecks")
	}
}

func TestDBRecordsAndWarmStart(t *testing.T) {
	db := store.New()
	c := newController(t, func(cfg *Config) { cfg.DB = db })
	rng := stats.NewRNG(6)
	tasks := []int{1, 1}
	for slot := 0; slot < 10; slot++ {
		snap := snapshotAt(slot, 300, tasks, rng)
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	if db.Len() != 20 { // 2 operators × 10 slots
		t.Fatalf("db records = %d, want 20", db.Len())
	}
	// A fresh controller warm-started from the same DB should already hold
	// the observations.
	warm := newController(t, func(cfg *Config) { cfg.DB = db })
	if warm.Searcher(0).Observations() == 0 {
		t.Error("warm start loaded no observations")
	}
	// And it should converge faster: with a trained GP the first Decide
	// should directly produce a capable configuration.
	snap := snapshotAt(0, 300, []int{1, 1}, stats.NewRNG(7))
	next, err := warm.Decide(snap)
	if err != nil {
		t.Fatal(err)
	}
	if capCurve(next[0]) < 500 {
		t.Errorf("warm-started first decision too small: %v", next)
	}
}

func TestDualsAccessor(t *testing.T) {
	c := newController(t)
	d := c.Duals()
	if len(d) != 2 || d[0] != 0 || d[1] != 0 {
		t.Errorf("initial duals = %v", d)
	}
}

func TestSkipsIdleObservations(t *testing.T) {
	c := newController(t)
	rng := stats.NewRNG(8)
	snap := snapshotAt(0, 1, []int{10, 10}, rng) // nearly idle
	snap.Operators[0].Util = minObserveUtil - 0.01
	snap.Operators[1].Util = minObserveUtil
	if _, err := c.Decide(snap); err != nil {
		t.Fatal(err)
	}
	if got := c.Searcher(0).Observations(); got != 0 {
		t.Errorf("idle observation was not skipped: %d", got)
	}
	if got := c.Searcher(1).Observations(); got != 1 {
		t.Errorf("observation at the util threshold was skipped: %d", got)
	}
}

func TestConventionalAcquisitionConfigurable(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.Acquisition = ucb.Conventional })
	rng := stats.NewRNG(9)
	tasks := []int{1, 1}
	for slot := 0; slot < 15; slot++ {
		snap := snapshotAt(slot, 80, tasks, rng) // low demand
		next, err := c.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	// Conventional UCB chases the maximum capacity instead of tracking the
	// small target: it should over-provision relative to demand (160).
	if capCurve(tasks[0]) < 300 {
		t.Errorf("conventional UCB did not over-provision: %v", tasks)
	}
}

// TestNewRejectsUnknownAcquisition: the searchers validate the
// acquisition, so a bad value fails construction instead of every Decide.
func TestNewRejectsUnknownAcquisition(t *testing.T) {
	for _, acq := range []ucb.Acquisition{2, -1} {
		if _, err := New(Config{Graph: chain(t), YMax: 1000, NoiseVar: 100, Acquisition: acq}); err == nil {
			t.Errorf("%v accepted", acq)
		}
	}
}

func TestDecideWithUnknownOperatorCountErrors(t *testing.T) {
	c := newController(t)
	snap := &monitor.Snapshot{
		SourceRates: []float64{1},
		Operators:   make([]monitor.OperatorMetrics, 3),
	}
	if _, err := c.Decide(snap); err == nil {
		t.Error("operator count mismatch accepted")
	}
	var want = errNoSnapshot
	if _, err := c.Decide(nil); !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
}

func TestGPRowsBoundedByCandidates(t *testing.T) {
	// Every observation lands on a candidate configuration, so each
	// operator's GP holds at most one row per candidate however many
	// slots run — the flat-memory contract behind the long-horizon
	// scenario (experiment.LongHorizon) — while Len counts every sample.
	c := newController(t)
	rng := stats.NewRNG(5)
	tasks := []int{1, 1}
	for slot := 0; slot < 30; slot++ {
		next, err := c.Decide(snapshotAt(slot, 300, tasks, rng))
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	for i := 0; i < 2; i++ {
		reg := c.Searcher(i).Regressor()
		if reg.Rows() > len(c.cfg.Candidates[i]) {
			t.Errorf("op %d holds %d rows for %d candidates", i, reg.Rows(), len(c.cfg.Candidates[i]))
		}
		if reg.Len() != c.Searcher(i).Observations() || reg.Len() <= reg.Rows() {
			t.Errorf("op %d: Len %d, Rows %d, searcher observations %d; want every sample counted and repeats merged",
				i, reg.Len(), reg.Rows(), c.Searcher(i).Observations())
		}
	}
}
