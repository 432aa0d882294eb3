package streamsim_test

import (
	"math"
	"testing"

	"dragster/internal/dag/dagtest"
	"dragster/internal/stats"
	"dragster/internal/streamsim"
)

// lastSink runs ticks ticks at constant rates and returns the sink
// throughput of the last, a one-tick window of the engine's totals.
func lastSink(t *testing.T, e *streamsim.Engine, rates []float64, ticks int) float64 {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		e.ClearTotals()
		if err := e.Tick(rates); err != nil {
			t.Fatal(err)
		}
	}
	return e.Totals().Sink
}

// TestRandomGraphsSteadyStateMatchesModel cross-validates the two
// throughput models: for random DAGs with ample capacity, the tick-level
// engine must converge to the steady state dag.Evaluate predicts — the
// property that makes the optimizer's model-based reasoning valid.
func TestRandomGraphsSteadyStateMatchesModel(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 30; trial++ {
		g, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		m := g.NumOperators()
		// Ample capacity: nothing truncates, so the steady state is the
		// pure h-composition.
		models := make([]streamsim.CapacityModel, m)
		caps := make([]float64, m)
		for i := 0; i < m; i++ {
			lin, err := streamsim.NewLinearCurve(1e8)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = lin
			caps[i] = 1e8
		}
		e, err := streamsim.New(streamsim.Config{Graph: g, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(10, 1000)
		}
		want, err := g.Throughput(rates, caps)
		if err != nil {
			t.Fatal(err)
		}
		// Enough ticks for the flow to traverse the deepest pipeline.
		sink := lastSink(t, e, rates, 12)
		if math.Abs(sink-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: engine steady state %v ≠ model %v", trial, sink, want)
		}
		if e.BufferedTotal() > 1e-6 {
			t.Fatalf("trial %d: residual backlog %v with ample capacity", trial, e.BufferedTotal())
		}
	}
}

// TestRandomGraphsBottleneckedThroughputBelowModelCap verifies that under
// random tight capacities the engine never exceeds the model's prediction
// and that backlog appears exactly when the model says some operator is
// overloaded.
func TestRandomGraphsBottleneckedThroughputBelowModelCap(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 30; trial++ {
		g, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		m := g.NumOperators()
		models := make([]streamsim.CapacityModel, m)
		caps := make([]float64, m)
		for i := 0; i < m; i++ {
			c := rng.Uniform(50, 800)
			lin, err := streamsim.NewLinearCurve(c)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = lin
			caps[i] = c
		}
		e, err := streamsim.New(streamsim.Config{Graph: g, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = rng.Uniform(100, 1500)
		}
		rep, err := g.Evaluate(rates, caps)
		if err != nil {
			t.Fatal(err)
		}
		// The dynamic engine may briefly exceed the steady state while
		// draining transients, but after 40 ticks of constant load it must
		// sit at (or below, for join-like shapes) the model's value.
		if sink := lastSink(t, e, rates, 40); sink > rep.Throughput*1.02+1e-6 {
			t.Fatalf("trial %d: engine %v above model steady state %v", trial, sink, rep.Throughput)
		}
		overloaded := false
		for i := range caps {
			if rep.Demand[i] > caps[i]+1e-9 {
				overloaded = true
			}
		}
		if overloaded && e.BufferedTotal() <= 0 {
			t.Fatalf("trial %d: model says overloaded but engine has no backlog", trial)
		}
	}
}
