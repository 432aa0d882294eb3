package dag

import (
	"math"
	"testing"
)

// FuzzGraphBuild drives Builder with arbitrary node kinds and edge lists.
// Build must never panic: every malformed topology (cycles, dangling
// operators, bad splitting weights, arity-mismatched throughput
// functions) has to surface as an error. When Build succeeds, the graph
// must satisfy its structural invariants and evaluate cleanly.
func FuzzGraphBuild(f *testing.F) {
	// A valid chain source → op → sink, a cycle, and a fan-out.
	f.Add([]byte{3, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{2, 1, 1, 0, 1, 1, 0})
	f.Add([]byte{4, 0, 1, 1, 2, 0, 1, 1, 2, 1, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("not enough bytes")
		}
		n := 1 + int(data[0])%8 // 1..8 nodes
		data = data[1:]
		if len(data) < n {
			t.Skip("not enough bytes")
		}
		b := &Builder{}
		kinds := make([]Kind, n)
		for i := 0; i < n; i++ {
			kinds[i] = Kind(int(data[i]) % 3)
			switch kinds[i] {
			case Source:
				b.Source("src")
			case Operator:
				b.Operator("op")
			case Sink:
				b.Sink("sink")
			}
		}
		data = data[n:]
		for len(data) >= 2 {
			from := NodeID(int(data[0]) % n)
			to := NodeID(int(data[1]) % n)
			var h ThroughputFunc
			if kinds[from] == Operator {
				h = Selectivity(0.5)
			}
			b.Edge(from, to, h, 1.0)
			data = data[2:]
		}

		g, err := b.Build()
		if err != nil {
			return // rejected input: the error is the contract
		}

		if got := g.NumOperators(); got != len(g.Operators()) {
			t.Fatalf("NumOperators = %d, Operators() has %d", got, len(g.Operators()))
		}
		if got := g.NumSources(); got != len(g.Sources()) {
			t.Fatalf("NumSources = %d, Sources() has %d", got, len(g.Sources()))
		}
		for i, id := range g.Operators() {
			if g.KindOf(id) != Operator {
				t.Fatalf("operator list holds node %d of kind %v", id, g.KindOf(id))
			}
			if g.OperatorIndex(id) != i {
				t.Fatalf("OperatorIndex(%d) = %d, want %d", id, g.OperatorIndex(id), i)
			}
			if g.OperatorName(i) != g.Name(id) {
				t.Fatalf("OperatorName(%d) = %q, Name = %q", i, g.OperatorName(i), g.Name(id))
			}
			if len(g.PredEdgeIDs(id)) == 0 || len(g.SuccEdgeIDs(id)) == 0 {
				t.Fatalf("operator %d dangling: in-edges=%v out-edges=%v", id, g.PredEdgeIDs(id), g.SuccEdgeIDs(id))
			}
		}
		for _, id := range g.Sources() {
			if len(g.PredEdgeIDs(id)) != 0 {
				t.Fatalf("source %d has in-edges %v", id, g.PredEdgeIDs(id))
			}
		}
		// TopoOrder lists every node once, and every edge points forward.
		topo := g.TopoOrder()
		pos := make(map[NodeID]int, len(topo))
		for i, id := range topo {
			if _, dup := pos[id]; dup {
				t.Fatalf("TopoOrder lists node %d twice: %v", id, topo)
			}
			pos[id] = i
			if g.KindOf(id) == Sink && len(g.SuccEdgeIDs(id)) != 0 {
				t.Fatalf("sink %d has out-edges %v", id, g.SuccEdgeIDs(id))
			}
		}
		for ei := int32(0); int(ei) < g.NumEdges(); ei++ {
			if e := g.EdgeByID(ei); pos[e.From] >= pos[e.To] {
				t.Fatalf("edge %d→%d points backwards in TopoOrder %v", e.From, e.To, topo)
			}
		}

		rates := make([]float64, g.NumSources())
		for i := range rates {
			rates[i] = 100
		}
		y := make([]float64, g.NumOperators())
		for i := range y {
			y[i] = 1
		}
		tp, err := g.Throughput(rates, y)
		if err != nil {
			t.Fatalf("Throughput on built graph: %v", err)
		}
		if math.IsNaN(tp) || math.IsInf(tp, 0) || tp < 0 {
			t.Fatalf("Throughput = %v, want finite and non-negative", tp)
		}
	})
}
