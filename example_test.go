package dragster_test

import (
	"fmt"
	"log"

	"dragster"
)

// ExampleNewGraphBuilder builds the WordCount DAG by hand and evaluates
// its steady-state throughput under explicit capacities (Eq. 4).
func ExampleNewGraphBuilder() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	b.Edge(src, mp, nil, 1)
	b.Edge(mp, sh, dragster.Selectivity(2), 1) // flatMap: 2 words per line
	b.Edge(sh, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Offered 100 lines/s; map capacity 150 words/s is the bottleneck.
	th, err := g.Throughput([]float64{100}, []float64{150, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput: %.0f tuples/s\n", th)
	// Output: throughput: 150 tuples/s
}

// ExampleGraph_Gradient shows the reverse-sweep bottleneck signal: the
// saturated operator carries all the throughput gradient.
func ExampleGraph_Gradient() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	b.Edge(src, mp, nil, 1)
	b.Edge(mp, sh, dragster.Selectivity(2), 1)
	b.Edge(sh, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	_, grad, err := g.Gradient([]float64{100}, []float64{150, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("∂f/∂y_map=%.0f ∂f/∂y_shuffle=%.0f\n", grad[0], grad[1])
	// Output: ∂f/∂y_map=1 ∂f/∂y_shuffle=0
}

// saturating is a user-defined throughput function h(e) = k·e/(1 + e/c):
// an operator whose output per input tuple falls as its input grows (a
// deduplicating stage, say). It is increasing and concave, as Dragster
// requires, and supplies its own vector-Jacobian product.
type saturating struct{ k, c float64 }

func (s saturating) Eval(in []float64) float64 { return s.k * in[0] / (1 + in[0]/s.c) }

func (s saturating) AddVJP(in []float64, a float64, inAdj []float64) {
	d := 1 + in[0]/s.c
	inAdj[0] += a * s.k / (d * d)
}

func (s saturating) Name() string { return "saturating" }

// Example_customThroughputFunc plugs a ThroughputFunc defined outside the
// module into a graph: the gradient flows through its AddVJP, so the
// starved parse stage's marginal value is dedup's h'(50) = 1/1.5².
func Example_customThroughputFunc() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	parse := b.Operator("parse")
	dedup := b.Operator("dedup")
	snk := b.Sink("sink")
	b.Edge(src, parse, nil, 1)
	b.Edge(parse, dedup, dragster.Selectivity(1), 1)
	b.Edge(dedup, snk, saturating{k: 1, c: 100}, 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Parse capacity 50 < offered 100: parse is the bottleneck.
	th, grad, err := g.Gradient([]float64{100}, []float64{50, 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput=%.2f ∂f/∂y_parse=%.3f ∂f/∂y_dedup=%.0f\n", th, grad[0], grad[1])
	// Output: throughput=33.33 ∂f/∂y_parse=0.444 ∂f/∂y_dedup=0
}

// ExampleNewController wires the Dragster controller against a fabricated
// monitor snapshot (normally produced by the Job Monitor each slot).
func ExampleNewController() {
	b := dragster.NewGraphBuilder()
	src := b.Source("source")
	op := b.Operator("op")
	snk := b.Sink("sink")
	b.Edge(src, op, nil, 1)
	b.Edge(op, snk, dragster.Selectivity(1), 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := dragster.NewController(dragster.ControllerConfig{
		Graph:    g,
		Method:   dragster.SaddlePoint,
		YMax:     1000,
		NoiseVar: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ctrl.Name())
	// Output: dragster-saddle-point
}

// ExampleNewLearnedLinear fits an unknown selectivity online (Theorem 2).
func ExampleNewLearnedLinear() {
	l, err := dragster.NewLearnedLinear(1.0) // prior guess: 1 output per input
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.ObserveRates(100, 250); err != nil { // truth: 2.5
			log.Fatal(err)
		}
	}
	fmt.Printf("learned selectivity ≈ %.2f\n", l.K())
	// Output: learned selectivity ≈ 2.43
}
