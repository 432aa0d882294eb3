package streamsim

import (
	"testing"

	"dragster/internal/dag"
)

func latencyEngine(t testing.TB, perTask float64) *Engine {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("source")
	op := b.Operator("op")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, op, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinearCurve(perTask)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Models: []CapacityModel{lin}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLatencyZeroWhenKeepingUp(t *testing.T) {
	e := latencyEngine(t, 1000)
	var st *Totals
	for i := 0; i < 5; i++ {
		st = tickOnce(t, e, 100)
	}
	if st.Latency != 0 {
		t.Errorf("latency with ample capacity = %v, want 0", st.Latency)
	}
}

func TestLatencyGrowsUnderOverload(t *testing.T) {
	e := latencyEngine(t, 50) // capacity 50 vs offered 100
	var prev float64
	for i := 0; i < 10; i++ {
		lat := tickOnce(t, e, 100).Latency
		if i > 0 && lat <= prev {
			t.Fatalf("tick %d: latency %v did not grow from %v", i, lat, prev)
		}
		prev = lat
	}
	// Little's law check: after 10 ticks the backlog is 10·50 = 500
	// tuples draining at 50/s → ≈10 s.
	if prev < 8 || prev > 12 {
		t.Errorf("latency after 10 overloaded ticks = %v, want ≈10", prev)
	}
}

func TestLatencySaturatesDuringPause(t *testing.T) {
	e := latencyEngine(t, 1000)
	tickOnce(t, e, 100)
	e.Pause(2)
	if lat := tickOnce(t, e, 100).Latency; lat != MaxLatencySec {
		t.Errorf("paused latency = %v, want MaxLatencySec", lat)
	}
}

func TestLatencyCapped(t *testing.T) {
	// Zero-capacity operator with backlog: latency must cap, not go Inf.
	e := latencyEngine(t, 10)
	if err := e.SetTasks([]int{0}); err != nil {
		t.Fatal(err)
	}
	var st *Totals
	for i := 0; i < 3; i++ {
		st = tickOnce(t, e, 100)
	}
	if st.Latency != MaxLatencySec {
		t.Errorf("latency with dead operator = %v, want MaxLatencySec", st.Latency)
	}
}
