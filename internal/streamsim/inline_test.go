package streamsim

import (
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/stats"
)

// opaque hides a throughput function's concrete type, so the engine
// cannot take its inline Linear path.
type opaque struct{ h dag.ThroughputFunc }

func (o opaque) Eval(in []float64) float64                       { return o.h.Eval(in) }
func (o opaque) AddVJP(in []float64, a float64, inAdj []float64) { o.h.AddVJP(in, a, inAdj) }

// hideLinear wraps every operator out-edge function of e's plan in
// opaque and clears the inline flags of edges and steps, so e steps every
// operator through the general loop and evaluates every edge through the
// interface.
func hideLinear(e *Engine) {
	for i := range e.edges {
		if ep := &e.edges[i]; ep.h != nil {
			ep.h, ep.linear = opaque{ep.h}, false
		}
	}
	for i := range e.steps {
		e.steps[i].linear = false
	}
}

// sameTotals reports whether two engines' totals agree bit for bit in
// every field.
func sameTotals(a, b *Totals) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	ops := func(t *Totals) []float64 {
		var v []float64
		for _, o := range t.Ops {
			v = append(v, o.Arrived, o.Consumed, o.Emitted, o.Util, o.Backlog)
		}
		return v
	}
	return a.Active == b.Active && a.Paused == b.Paused &&
		same([]float64{a.Sink, a.Latency}, []float64{b.Sink, b.Latency}) &&
		same(a.Rates, b.Rates) && same(ops(a), ops(b))
}

// checkPlanConstants fails unless every operator's cached y and every
// out-edge's cached α·y, on the edge and on a linear step, equal the
// products tickOperator used to form each tick, bit for bit.
func checkPlanConstants(t *testing.T, e *Engine, when string) {
	t.Helper()
	for _, step := range e.steps {
		y := e.caps[step.op] * e.slotNoise[step.op]
		if math.Float64bits(step.y) != math.Float64bits(y) {
			t.Fatalf("%s: operator %d caches y %v, caps·noise is %v", when, step.op, step.y, y)
		}
		for _, ei := range step.succs {
			if ep := e.edges[ei]; math.Float64bits(ep.alphaY) != math.Float64bits(ep.alpha*y) {
				t.Fatalf("%s: edge %d caches α·y %v, α·y is %v", when, ei, ep.alphaY, ep.alpha*y)
			}
		}
		if step.linear && math.Float64bits(step.alphaY) != math.Float64bits(e.edges[step.out].alpha*y) {
			t.Fatalf("%s: linear operator %d caches α·y %v, α·y is %v", when, step.op, step.alphaY, e.edges[step.out].alpha*y)
		}
	}
}

// TestInlineLinearMatchesInterface: an engine evaluates a one-input
// Linear edge inline, steps an operator whose only out-edge is one
// straight-line, and divides a cached α·y, and it must tick bit for bit
// like an engine on the same graph whose edge functions are wrapped in
// opaque, which it evaluates through the general step; each tick is
// compared as a one-tick window of the totals, and before every tick
// the cached products must equal a fresh computation. The run
// covers random layered and join graphs and the chain, with capacity
// and CPU noise, a buffer cap, reconfiguration pauses, and SetAllocation
// and BeginSlot between ticks.
func TestInlineLinearMatchesInterface(t *testing.T) {
	rng := stats.NewRNG(2026)
	graphs := []*dag.Graph{chainGraph(t)}
	for i := 0; i < 8; i++ {
		layered, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		join, err := dagtest.RandomJoinGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, layered, join)
	}
	inlined, dropped := 0, 0.0
	for gi, g := range graphs {
		m := g.NumOperators()
		models := make([]CapacityModel, m)
		for i := range models {
			base, err := NewPowerCurve(80+40*rng.Float64(), 0.9, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = base
			if i%2 == 0 {
				if models[i], err = NewCPUScaledCurve(base, 1000, 0.8); err != nil {
					t.Fatal(err)
				}
			}
		}
		var engines [2]*Engine
		for k := range engines {
			e, err := New(Config{
				Graph:            g,
				Models:           models,
				NoiseSigma:       CloudNoiseSigma,
				UtilNoiseSigma:   CloudUtilNoiseSigma,
				MaxBufferPerEdge: 2000,
				RNG:              stats.NewRNG(int64(gi) + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			engines[k] = e
		}
		for _, ep := range engines[0].edges {
			if ep.linear {
				inlined++
			}
		}
		hideLinear(engines[1])
		tasks, cpu := make([]int, m), make([]int, m)
		rates := make([]float64, g.NumSources())
		for tick := 0; tick < 400; tick++ {
			if tick%50 == 0 {
				for i := range tasks {
					tasks[i], cpu[i] = 1+rng.Intn(6), 250*(1+rng.Intn(8))
				}
				for _, e := range engines {
					if err := e.SetAllocation(tasks, cpu); err != nil {
						t.Fatal(err)
					}
					e.BeginSlot()
				}
			}
			if tick%50 == 20 {
				for _, e := range engines {
					e.Pause(3)
				}
			}
			if tick%10 == 0 {
				for i := range rates {
					rates[i] = 1000 * rng.Float64()
				}
			}
			checkPlanConstants(t, engines[0], "before a tick")
			a, b := tickOnce(t, engines[0], rates...), tickOnce(t, engines[1], rates...)
			if !sameTotals(a, b) {
				t.Fatalf("graph %d tick %d: inline engine %+v, interface engine %+v", gi, tick, a, b)
			}
		}
		if engines[0].DroppedTotal() != engines[1].DroppedTotal() || engines[0].BufferedTotal() != engines[1].BufferedTotal() {
			t.Fatalf("graph %d: totals differ", gi)
		}
		dropped += engines[0].DroppedTotal()
	}
	if inlined == 0 {
		t.Fatal("no graph had an inline Linear edge")
	}
	if dropped == 0 {
		t.Fatal("no tuples dropped, so the buffer cap went unexercised")
	}
}
