// Package dagtest provides a random layered-DAG generator shared by the
// property-based tests of the dag, streamsim and experiment packages.
// Test-only: keep out of production code paths.
package dagtest

import (
	"fmt"

	"dragster/internal/dag"
	"dragster/internal/stats"
)

// RandomLayeredGraph builds a random layered DAG: 1–2 sources, 1–3 layers
// of 1–3 operators, one sink. Every node feeds and is fed by the adjacent
// layers; splitting weights are normalized; edge functions are random
// multi-input linear forms with rates in [0.3, 2.0] — increasing and
// concave, per the paper's assumptions.
func RandomLayeredGraph(rng *stats.RNG) (*dag.Graph, error) {
	return randomLayered(rng, 1+rng.Intn(2), false)
}

// RandomJoinGraph builds a random layered DAG as RandomLayeredGraph does,
// from 2–3 sources, where each out-edge of an operator with two or three
// inputs is a join with probability 2/3: a MinRate (Eq. 2b) with weights
// in [0.3, 2.0]. A join in the first layer is fed by sources, one further
// down by operators.
func RandomJoinGraph(rng *stats.RNG) (*dag.Graph, error) {
	return randomLayered(rng, 2+rng.Intn(2), true)
}

func randomLayered(rng *stats.RNG, nSources int, joins bool) (*dag.Graph, error) {
	b := dag.NewBuilder()

	nLayers := 1 + rng.Intn(3)

	kinds := map[dag.NodeID]dag.Kind{}
	var layers [][]dag.NodeID
	var srcs []dag.NodeID
	for i := 0; i < nSources; i++ {
		id := b.Source(fmt.Sprintf("src-%d", i))
		kinds[id] = dag.Source
		srcs = append(srcs, id)
	}
	layers = append(layers, srcs)
	for l := 0; l < nLayers; l++ {
		width := 1 + rng.Intn(3)
		var layer []dag.NodeID
		for i := 0; i < width; i++ {
			id := b.Operator(fmt.Sprintf("op-%d-%d", l, i))
			kinds[id] = dag.Operator
			layer = append(layer, id)
		}
		layers = append(layers, layer)
	}
	sink := b.Sink("sink")
	kinds[sink] = dag.Sink
	layers = append(layers, []dag.NodeID{sink})

	type edge struct{ from, to dag.NodeID }
	var edges []edge
	addEdge := func(from, to dag.NodeID) {
		for _, e := range edges {
			if e.from == from && e.to == to {
				return
			}
		}
		edges = append(edges, edge{from, to})
	}
	for k := 0; k+1 < len(layers); k++ {
		cur, next := layers[k], layers[k+1]
		for i, from := range cur {
			addEdge(from, next[i%len(next)])
		}
		for i, to := range next {
			addEdge(cur[i%len(cur)], to)
		}
		if rng.Float64() < 0.5 {
			addEdge(cur[rng.Intn(len(cur))], next[rng.Intn(len(next))])
		}
	}
	inCount := map[dag.NodeID]int{}
	outCount := map[dag.NodeID]int{}
	for _, e := range edges {
		inCount[e.to]++
		outCount[e.from]++
	}
	for _, e := range edges {
		alpha := 1.0 / float64(outCount[e.from])
		var h dag.ThroughputFunc
		if kinds[e.from] == dag.Operator {
			ks := make([]float64, inCount[e.from])
			for i := range ks {
				ks[i] = 0.3 + 1.7*rng.Float64()
			}
			var err error
			if joins && len(ks) >= 2 && rng.Float64() < 2.0/3 {
				h, err = dag.NewMinRate(ks...)
			} else {
				h, err = dag.NewLinear(ks...)
			}
			if err != nil {
				return nil, err
			}
		}
		b.Edge(e.from, e.to, h, alpha)
	}
	return b.Build()
}
