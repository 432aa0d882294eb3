package streamsim

import (
	"math"
	"testing"
	"testing/quick"

	"dragster/internal/dag"
	"dragster/internal/stats"
)

// chainGraph builds source → map(sel 2) → shuffle(sel 1) → sink.
func chainGraph(t testing.TB) *dag.Graph {
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

func chainEngine(t testing.TB, perTask float64) *Engine {
	t.Helper()
	g := chainGraph(t)
	m1, err := NewLinearCurve(perTask)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Models: []CapacityModel{m1, m1}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// tickOnce runs one tick at the given source rates and returns it as a
// one-tick window of the engine's totals, valid until the next tick.
func tickOnce(t testing.TB, e *Engine, rates ...float64) *Totals {
	t.Helper()
	e.ClearTotals()
	if err := e.Tick(rates); err != nil {
		t.Fatal(err)
	}
	return e.Totals()
}

func TestPowerCurveValidation(t *testing.T) {
	if _, err := NewPowerCurve(0, 0.9, 0); err == nil {
		t.Error("zero PerTask accepted")
	}
	if _, err := NewPowerCurve(100, 1.5, 0); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if _, err := NewPowerCurve(100, 0.9, 0.5); err == nil {
		t.Error("huge ripple accepted")
	}
	// A ripple large relative to a flat curve breaks monotonicity.
	if _, err := NewPowerCurve(100, 0.05, 0.19); err == nil {
		t.Error("non-monotone curve accepted")
	}
	c, err := NewPowerCurve(100, 0.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity(0) != 0 || c.Capacity(-1) != 0 {
		t.Error("non-positive tasks must have zero capacity")
	}
	prev := 0.0
	for n := 1; n <= MaxTasksChecked; n++ {
		v := c.Capacity(n)
		if v <= prev {
			t.Fatalf("capacity not increasing at n=%d", n)
		}
		prev = v
	}
}

func TestLinearCurve(t *testing.T) {
	if _, err := NewLinearCurve(-1); err == nil {
		t.Error("negative slope accepted")
	}
	c, err := NewLinearCurve(50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity(4) != 200 || c.Capacity(0) != 0 {
		t.Errorf("LinearCurve values wrong")
	}
}

func TestSaturatingCurve(t *testing.T) {
	inner, err := NewPowerCurve(100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSaturatingCurve(inner, 0); err == nil {
		t.Error("zero ceiling accepted")
	}
	c, err := NewSaturatingCurve(inner, 250)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity(100) > 250 {
		t.Errorf("ceiling violated: %v", c.Capacity(100))
	}
	if c.Capacity(2) >= inner.Capacity(2) {
		t.Error("saturation must lose some capacity versus the inner curve")
	}
	if c.Capacity(10) <= c.Capacity(1) {
		t.Error("saturating curve not increasing")
	}
}

func TestNewValidation(t *testing.T) {
	g := chainGraph(t)
	lin, _ := NewLinearCurve(10)
	if _, err := New(Config{Graph: nil}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(Config{Graph: g, Models: []CapacityModel{lin}}); err == nil {
		t.Error("model count mismatch accepted")
	}
	if _, err := New(Config{Graph: g, Models: []CapacityModel{lin, nil}}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(Config{Graph: g, Models: []CapacityModel{lin, lin}, NoiseSigma: 0.1}); err == nil {
		t.Error("noise without RNG accepted")
	}
	if _, err := New(Config{Graph: g, Models: []CapacityModel{lin, lin}, NoiseSigma: -1, RNG: stats.NewRNG(1)}); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestSteadyStateMatchesDAGModel(t *testing.T) {
	// With ample capacity the per-tick sink throughput must converge to the
	// dag.Evaluate steady state: rate 100 → map ×2 → 200.
	e := chainEngine(t, 1000)
	if err := e.SetTasks([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	var last *Totals
	for i := 0; i < 10; i++ {
		last = tickOnce(t, e, 100)
	}
	if math.Abs(last.Sink-200) > 1e-9 {
		t.Errorf("steady sink throughput = %v, want 200", last.Sink)
	}
}

func TestCapacityBottleneckAndBacklog(t *testing.T) {
	// map capacity 150 (output units) < demand 200: backlog builds at map.
	e := chainEngine(t, 150)
	if err := e.SetTasks([]int{1, 10}); err != nil {
		t.Fatal(err)
	}
	var st *Totals
	for i := 0; i < 20; i++ {
		st = tickOnce(t, e, 100)
	}
	mapIdx := 0
	if st.Ops[mapIdx].Emitted > 150+1e-9 {
		t.Errorf("map emitted %v beyond capacity 150", st.Ops[mapIdx].Emitted)
	}
	if st.Ops[mapIdx].Backlog <= 0 {
		t.Error("expected backlog at bottleneck map operator")
	}
	// Backlog must grow monotonically while overloaded: input 100/s → demand
	// 200/s output-equivalent, drained at 150/s → +25 input tuples per tick.
	if e.BufferedTotal() < 100 {
		t.Errorf("total backlog = %v, want ≥ 100 after 20 overloaded ticks", e.BufferedTotal())
	}
	if st.Sink > 150+1e-9 {
		t.Errorf("sink throughput %v beyond bottleneck capacity", st.Sink)
	}
}

func TestBacklogDrainsAfterScaleUp(t *testing.T) {
	e := chainEngine(t, 100)
	if err := e.SetTasks([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := e.Tick([]float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	backlog := e.BufferedTotal()
	if backlog <= 0 {
		t.Fatal("expected backlog under overload")
	}
	// Scale map to 4 tasks (capacity 400 > demand 200): backlog drains.
	if err := e.SetTasks([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := e.Tick([]float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	if e.BufferedTotal() >= backlog/10 {
		t.Errorf("backlog did not drain: %v → %v", backlog, e.BufferedTotal())
	}
}

func TestPauseAccumulatesAndRecovers(t *testing.T) {
	e := chainEngine(t, 1000)
	tickOnce(t, e, 100)
	e.Pause(3)
	if e.pause <= 0 {
		t.Error("Paused() false after Pause")
	}
	var pausedThroughput float64
	for i := 0; i < 3; i++ {
		st := tickOnce(t, e, 100)
		if st.Paused != 1 || st.Active != 0 {
			t.Fatalf("tick %d not counted paused: %+v", i, st)
		}
		pausedThroughput += st.Sink
	}
	if pausedThroughput != 0 {
		t.Errorf("sink throughput during pause = %v", pausedThroughput)
	}
	if e.pause > 0 {
		t.Error("still paused after 3 ticks")
	}
	// First tick after resume processes the backlog burst.
	if sink := tickOnce(t, e, 100).Sink; sink <= 200 {
		t.Errorf("post-pause catch-up throughput = %v, want > steady 200", sink)
	}
}

func TestPauseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Pause did not panic")
		}
	}()
	chainEngine(t, 10).Pause(-1)
}

func TestZeroTasksProcessNothing(t *testing.T) {
	e := chainEngine(t, 100)
	if err := e.SetTasks([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if sink := tickOnce(t, e, 50).Sink; sink != 0 {
			t.Fatalf("throughput with zero-task operator = %v", sink)
		}
	}
	if e.BufferedTotal() != 250 {
		t.Errorf("backlog = %v, want 250 (5 ticks × 50)", e.BufferedTotal())
	}
}

func TestBufferCapDrops(t *testing.T) {
	g := chainGraph(t)
	lin, _ := NewLinearCurve(10) // far below offered load
	e, err := New(Config{Graph: g, Models: []CapacityModel{lin, lin}, MaxBufferPerEdge: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Tick([]float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	if e.DroppedTotal() <= 0 {
		t.Error("expected drops under a buffer cap")
	}
	if e.BufferedTotal() > 2*100+1e-9 {
		t.Errorf("buffers exceed cap: %v", e.BufferedTotal())
	}
}

func TestUtilizationReflectsLoad(t *testing.T) {
	e := chainEngine(t, 400) // capacity 400 vs demand 200 → util ~0.5
	var st *Totals
	for i := 0; i < 5; i++ {
		st = tickOnce(t, e, 100)
	}
	if math.Abs(st.Ops[0].Util-0.5) > 1e-6 {
		t.Errorf("map util = %v, want 0.5", st.Ops[0].Util)
	}
	// Observed capacity per Eq. 8: emitted/util = true capacity.
	got := st.Ops[0].Emitted / st.Ops[0].Util
	if math.Abs(got-400) > 1e-6 {
		t.Errorf("Eq.8 capacity estimate = %v, want 400", got)
	}
}

func TestSlotNoiseMeanOne(t *testing.T) {
	g := chainGraph(t)
	lin, _ := NewLinearCurve(100)
	e, err := New(Config{Graph: g, Models: []CapacityModel{lin, lin}, NoiseSigma: 0.2, RNG: stats.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		e.BeginSlot()
		sum += e.slotNoise[0]
		sumSq += e.slotNoise[0] * e.slotNoise[0]
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("slot noise mean = %v, want ≈1", mean)
	}
	if std := math.Sqrt(sumSq/n - mean*mean); std < 0.1 {
		t.Errorf("slot noise std = %v, want ≈0.2", std)
	}
}

func TestSetTasksValidation(t *testing.T) {
	e := chainEngine(t, 10)
	if err := e.SetTasks([]int{1}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := e.SetTasks([]int{-1, 1}); err == nil {
		t.Error("negative tasks accepted")
	}
}

func TestTickValidation(t *testing.T) {
	e := chainEngine(t, 10)
	if err := e.Tick([]float64{1, 2}); err == nil {
		t.Error("wrong rate count accepted")
	}
	if err := e.Tick([]float64{-1}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := e.Tick([]float64{math.NaN()}); err == nil {
		t.Error("NaN rate accepted")
	}
	if st := e.Totals(); st.Active != 0 || st.Paused != 0 || st.Rates[0] != 0 || e.BufferedTotal() != 0 {
		t.Errorf("rejected ticks changed the engine: totals %+v, backlog %v", st, e.BufferedTotal())
	}
}

// TestMassConservationProperty: over any run without buffer caps,
// tuples emitted by sources × path selectivity == sink output + in-flight
// backlog (in output-equivalent units). With selectivity 2 on map this
// means 2·source = sink + 2·mapBacklog + shuffleBacklog.
func TestMassConservationProperty(t *testing.T) {
	f := func(seed int64, rateRaw uint8, ticksRaw uint8) bool {
		rate := 10 + float64(rateRaw%200)
		ticks := 5 + int(ticksRaw%50)
		e := chainEngine(t, 120)
		if err := e.SetTasks([]int{1 + int(seed%3+3)%3, 2}); err != nil {
			return false
		}
		var sink float64
		for i := 0; i < ticks; i++ {
			sink += tickOnce(t, e, rate).Sink
		}
		emitted := rate * float64(ticks)
		// Backlogs by operator (input units): map backlog ×2 converts to
		// output units; shuffle backlog is already in map-output units.
		mapBacklog := e.opBacklog(0)
		shuffleBacklog := e.opBacklog(1)
		lhs := 2 * emitted
		rhs := sink + 2*mapBacklog + shuffleBacklog
		return math.Abs(lhs-rhs) < 1e-6*(1+lhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJoinTopologyMinRate(t *testing.T) {
	b := dag.NewBuilder()
	s1 := b.Source("s1")
	s2 := b.Source("s2")
	j := b.Operator("join")
	snk := b.Sink("k")
	b.Edge(s1, j, nil, 1)
	b.Edge(s2, j, nil, 1)
	mr, err := dag.NewMinRate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(j, snk, mr, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := NewLinearCurve(1000)
	e, err := New(Config{Graph: g, Models: []CapacityModel{lin}})
	if err != nil {
		t.Fatal(err)
	}
	var st *Totals
	for i := 0; i < 10; i++ {
		st = tickOnce(t, e, 100, 40)
	}
	if math.Abs(st.Sink-40) > 1e-9 {
		t.Errorf("join throughput = %v, want 40 (slow side)", st.Sink)
	}
}

func BenchmarkTickChain(b *testing.B) {
	e := chainEngine(b, 150)
	if err := e.SetTasks([]int{2, 3}); err != nil {
		b.Fatal(err)
	}
	rates := []float64{100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Tick(rates); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResetMatchesFresh: an engine that has ticked with noise under a
// changed allocation and a pending pause, then been Reset with its RNG
// reseeded, ticks exactly like a fresh engine on a fresh RNG of that
// seed — its totals, emptied by Reset and BeginSlot, agree bit for bit
// after every tick, with and without buffer caps — and Reset leaves the cached per-operator y and per-edge α·y
// that New computes. The capacity planner reuses one engine across its
// probes on this guarantee.
func TestResetMatchesFresh(t *testing.T) {
	g := chainGraph(t)
	base, err := NewPowerCurve(120, 0.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewCPUScaledCurve(base, 1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	models := []CapacityModel{scaled, base}
	for _, maxBuf := range []float64{0, 300} {
		cfg := Config{
			Graph:            g,
			Models:           models,
			NoiseSigma:       CloudNoiseSigma,
			UtilNoiseSigma:   CloudUtilNoiseSigma,
			MaxBufferPerEdge: maxBuf,
		}
		cfg.RNG = stats.NewRNG(99)
		used, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := used.SetAllocation([]int{3, 2}, []int{1500, 500}); err != nil {
			t.Fatal(err)
		}
		used.BeginSlot()
		for i := 0; i < 17; i++ {
			if err := used.Tick([]float64{900}); err != nil {
				t.Fatal(err)
			}
		}
		used.Pause(4)
		used.Reset()
		cfg.RNG.Seed(7)

		cfg.RNG = stats.NewRNG(7)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Reset restores the per-slot constants New computes and empties
		// the totals.
		checkPlanConstants(t, used, "after Reset")
		if !sameTotals(used.Totals(), fresh.Totals()) {
			t.Fatalf("cap %v: totals %+v after Reset, %+v fresh", maxBuf, used.Totals(), fresh.Totals())
		}
		for i := range fresh.steps {
			if math.Float64bits(used.steps[i].y) != math.Float64bits(fresh.steps[i].y) {
				t.Fatalf("cap %v: step %d y %v after Reset, %v fresh", maxBuf, i, used.steps[i].y, fresh.steps[i].y)
			}
		}
		for i := range fresh.edges {
			if math.Float64bits(used.edges[i].alphaY) != math.Float64bits(fresh.edges[i].alphaY) {
				t.Fatalf("cap %v: edge %d α·y %v after Reset, %v fresh", maxBuf, i, used.edges[i].alphaY, fresh.edges[i].alphaY)
			}
		}
		for _, e := range []*Engine{used, fresh} {
			if err := e.SetTasks([]int{2, 1}); err != nil {
				t.Fatal(err)
			}
			e.BeginSlot()
		}
		for tick := 0; tick < 30; tick++ {
			for _, e := range []*Engine{used, fresh} {
				if err := e.Tick([]float64{400}); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := used.Totals(), fresh.Totals(); !sameTotals(a, b) {
				t.Fatalf("cap %v tick %d: reset engine %+v, fresh %+v", maxBuf, tick, a, b)
			}
			if tick%10 == 9 {
				used.BeginSlot()
				fresh.BeginSlot()
			}
		}
		if used.DroppedTotal() != fresh.DroppedTotal() || used.BufferedTotal() != fresh.BufferedTotal() {
			t.Fatalf("cap %v: totals differ: dropped %v/%v buffered %v/%v", maxBuf,
				used.DroppedTotal(), fresh.DroppedTotal(), used.BufferedTotal(), fresh.BufferedTotal())
		}
		if maxBuf > 0 && fresh.DroppedTotal() == 0 {
			t.Fatalf("cap %v: no drops, so the cap path went unexercised", maxBuf)
		}
	}
}
