package dag

import (
	"errors"
	"fmt"
	"math"
)

// Kind classifies a node in the data stream graph.
type Kind int

// Node kinds. A Source reads from an external queue and emits tuples, an
// Operator consumes and transforms tuples under a service-capacity limit,
// and a Sink absorbs results (its inflow is the application throughput).
const (
	Source Kind = iota
	Operator
	Sink
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Source:
		return "source"
	case Operator:
		return "operator"
	case Sink:
		return "sink"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeID identifies a node within one Graph.
type NodeID int

// EdgeKey identifies a directed edge.
type EdgeKey struct {
	From, To NodeID
}

// Graph is a validated, immutable stream-application DAG. Build one with a
// Builder. All query methods are safe for concurrent use.
type Graph struct {
	names []string
	kinds []Kind

	preds [][]NodeID // ordered; defines the input-vector order for h
	succs [][]NodeID

	edgeH     map[EdgeKey]ThroughputFunc
	edgeAlpha map[EdgeKey]float64

	// Flat edge index, built once at Build so per-tick consumers
	// (streamsim, Evaluate) touch dense arrays instead of the maps above:
	// edge IDs are assigned walking nodes in ID order and each node's
	// successor list in declaration order.
	edges      []EdgeKey        // edge ID -> key
	alphaByID  []float64        // edge ID -> α
	hByID      []ThroughputFunc // edge ID -> h (nil for source edges)
	predEdges  [][]int32        // node -> incoming edge IDs, preds order
	succEdges  [][]int32        // node -> outgoing edge IDs, succs order
	maxInEdges int              // max len(preds) over all nodes

	topo      []NodeID
	sources   []NodeID
	operators []NodeID
	sinks     []NodeID
	opIndex   map[NodeID]int // NodeID -> dense operator index
	srcIndex  map[NodeID]int
}

// Builder accumulates nodes and edges for a Graph.
type Builder struct {
	names []string
	kinds []Kind
	edges []builderEdge
}

type builderEdge struct {
	from, to NodeID
	h        ThroughputFunc
	alpha    float64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) addNode(name string, k Kind) NodeID {
	b.names = append(b.names, name)
	b.kinds = append(b.kinds, k)
	return NodeID(len(b.names) - 1)
}

// Source declares a source node and returns its ID.
func (b *Builder) Source(name string) NodeID { return b.addNode(name, Source) }

// Operator declares an operator node and returns its ID.
func (b *Builder) Operator(name string) NodeID { return b.addNode(name, Operator) }

// Sink declares a sink node and returns its ID. Multiple sinks are allowed;
// the application throughput is the sum of their inflows (the paper's
// virtual-sink construction).
func (b *Builder) Sink(name string) NodeID { return b.addNode(name, Sink) }

// Edge declares a directed edge from → to. For edges leaving an operator,
// h is the throughput function h_{from,to} and must be non-nil; for edges
// leaving a source, h must be nil (a source emits its offered rate
// directly). alpha is the capacity-splitting weight α_{from,to}; the
// weights leaving each node must sum to 1 (checked at Build).
func (b *Builder) Edge(from, to NodeID, h ThroughputFunc, alpha float64) {
	b.edges = append(b.edges, builderEdge{from: from, to: to, h: h, alpha: alpha})
}

// Chain is a convenience for linear pipelines: it connects each consecutive
// pair with alpha = 1 and the supplied throughput functions (hs[i] connects
// nodes[i] → nodes[i+1]; use nil for the source's outgoing edge).
func (b *Builder) Chain(nodes []NodeID, hs []ThroughputFunc) error {
	if len(hs) != len(nodes)-1 {
		return fmt.Errorf("dag: Chain needs %d throughput functions for %d nodes, got %d", len(nodes)-1, len(nodes), len(hs))
	}
	for i := 0; i+1 < len(nodes); i++ {
		b.Edge(nodes[i], nodes[i+1], hs[i], 1)
	}
	return nil
}

// Build validates the accumulated topology and returns an immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.names)
	if n == 0 {
		return nil, errors.New("dag: empty graph")
	}
	g := &Graph{
		names:     append([]string(nil), b.names...),
		kinds:     append([]Kind(nil), b.kinds...),
		preds:     make([][]NodeID, n),
		succs:     make([][]NodeID, n),
		edgeH:     make(map[EdgeKey]ThroughputFunc, len(b.edges)),
		edgeAlpha: make(map[EdgeKey]float64, len(b.edges)),
		opIndex:   make(map[NodeID]int),
		srcIndex:  make(map[NodeID]int),
	}
	for _, e := range b.edges {
		if e.from < 0 || int(e.from) >= n || e.to < 0 || int(e.to) >= n {
			return nil, fmt.Errorf("dag: edge (%d→%d) references unknown node", e.from, e.to)
		}
		key := EdgeKey{From: e.from, To: e.to}
		if _, dup := g.edgeAlpha[key]; dup {
			return nil, fmt.Errorf("dag: duplicate edge %s→%s", g.names[e.from], g.names[e.to])
		}
		if g.kinds[e.from] == Sink {
			return nil, fmt.Errorf("dag: sink %q cannot have outgoing edges", g.names[e.from])
		}
		if g.kinds[e.to] == Source {
			return nil, fmt.Errorf("dag: source %q cannot have incoming edges", g.names[e.to])
		}
		switch g.kinds[e.from] {
		case Source:
			if e.h != nil {
				return nil, fmt.Errorf("dag: edge %s→%s leaves a source and must not carry a throughput function", g.names[e.from], g.names[e.to])
			}
		case Operator:
			if e.h == nil {
				return nil, fmt.Errorf("dag: edge %s→%s leaves an operator and needs a throughput function", g.names[e.from], g.names[e.to])
			}
		}
		if e.alpha < 0 || math.IsNaN(e.alpha) || math.IsInf(e.alpha, 0) {
			return nil, fmt.Errorf("dag: edge %s→%s has invalid splitting weight %v", g.names[e.from], g.names[e.to], e.alpha)
		}
		g.preds[e.to] = append(g.preds[e.to], e.from)
		g.succs[e.from] = append(g.succs[e.from], e.to)
		g.edgeH[key] = e.h
		g.edgeAlpha[key] = e.alpha
	}

	for id := 0; id < n; id++ {
		nid := NodeID(id)
		switch g.kinds[id] {
		case Source:
			if len(g.succs[id]) == 0 {
				return nil, fmt.Errorf("dag: source %q has no successors", g.names[id])
			}
			g.srcIndex[nid] = len(g.sources)
			g.sources = append(g.sources, nid)
		case Operator:
			if len(g.preds[id]) == 0 {
				return nil, fmt.Errorf("dag: operator %q has no predecessors", g.names[id])
			}
			if len(g.succs[id]) == 0 {
				return nil, fmt.Errorf("dag: operator %q has no successors", g.names[id])
			}
			g.opIndex[nid] = len(g.operators)
			g.operators = append(g.operators, nid)
		case Sink:
			if len(g.preds[id]) == 0 {
				return nil, fmt.Errorf("dag: sink %q has no predecessors", g.names[id])
			}
			g.sinks = append(g.sinks, nid)
		}
		if len(g.succs[id]) > 0 {
			var sum float64
			for _, s := range g.succs[id] {
				sum += g.edgeAlpha[EdgeKey{From: nid, To: s}]
			}
			if math.Abs(sum-1) > 1e-9 {
				return nil, fmt.Errorf("dag: splitting weights leaving %q sum to %v, want 1", g.names[id], sum)
			}
		}
	}
	if len(g.sinks) == 0 {
		return nil, errors.New("dag: graph has no sink")
	}
	if len(g.sources) == 0 {
		return nil, errors.New("dag: graph has no source")
	}

	topo, err := g.topoSort()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.buildEdgeIndex()

	if err := g.probe(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildEdgeIndex assigns each edge a dense ID and materializes the flat
// per-node adjacency arrays the hot paths iterate. Called once from Build;
// the maps stay authoritative for key-based queries (Alpha, H).
func (g *Graph) buildEdgeIndex() {
	n := len(g.names)
	ids := make(map[EdgeKey]int32, len(g.edgeAlpha))
	g.succEdges = make([][]int32, n)
	g.predEdges = make([][]int32, n)
	for id := 0; id < n; id++ {
		from := NodeID(id)
		for _, to := range g.succs[id] {
			key := EdgeKey{From: from, To: to}
			ei := int32(len(g.edges))
			ids[key] = ei
			g.edges = append(g.edges, key)
			g.alphaByID = append(g.alphaByID, g.edgeAlpha[key])
			g.hByID = append(g.hByID, g.edgeH[key])
			g.succEdges[id] = append(g.succEdges[id], ei)
		}
	}
	for id := 0; id < n; id++ {
		to := NodeID(id)
		for _, from := range g.preds[id] {
			g.predEdges[id] = append(g.predEdges[id], ids[EdgeKey{From: from, To: to}])
		}
		if len(g.preds[id]) > g.maxInEdges {
			g.maxInEdges = len(g.preds[id])
		}
	}
}

// topoSort runs Kahn's algorithm, returning an order or a cycle error.
func (g *Graph) topoSort() ([]NodeID, error) {
	n := len(g.names)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.preds[id])
	}
	var queue []NodeID
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("dag: graph contains a cycle")
	}
	return order, nil
}

// probe runs a dummy evaluation and one gradient sweep to surface
// throughput-function dimension mismatches at build time instead of first
// use. The sweep runs at y = 0 with λ = 1: every edge then takes the
// capacity branch and every h receives the adjoint −1, so each AddVJP runs.
func (g *Graph) probe() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dag: throughput function probe failed: %v", r)
		}
	}()
	rates := make([]float64, len(g.sources))
	for i := range rates {
		rates[i] = 1
	}
	y := make([]float64, len(g.operators))
	for i := range y {
		y[i] = 1
	}
	if _, err = g.Evaluate(rates, y); err != nil {
		return err
	}
	clear(y)
	lambda := make([]float64, len(g.operators))
	for i := range lambda {
		lambda[i] = 1
	}
	_, _, err = g.LagrangianGradient(new(Workspace), rates, y, lambda)
	return err
}

// NumOperators returns M, the number of operators.
func (g *Graph) NumOperators() int { return len(g.operators) }

// NumSources returns N, the number of sources.
func (g *Graph) NumSources() int { return len(g.sources) }

// Operators returns the operator node IDs in dense-index order.
func (g *Graph) Operators() []NodeID { return append([]NodeID(nil), g.operators...) }

// Sources returns the source node IDs in dense-index order.
func (g *Graph) Sources() []NodeID { return append([]NodeID(nil), g.sources...) }

// Sinks returns the sink node IDs.
func (g *Graph) Sinks() []NodeID { return append([]NodeID(nil), g.sinks...) }

// Name returns the node's name.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// KindOf returns the node's kind.
func (g *Graph) KindOf(id NodeID) Kind { return g.kinds[id] }

// OperatorIndex returns the dense index of an operator node (the position
// of its capacity in capacity vectors), or -1 if id is not an operator.
func (g *Graph) OperatorIndex(id NodeID) int {
	if i, ok := g.opIndex[id]; ok {
		return i
	}
	return -1
}

// OperatorName returns the name of the operator with dense index i.
func (g *Graph) OperatorName(i int) string { return g.names[g.operators[i]] }

// Preds returns the ordered predecessor list of a node.
func (g *Graph) Preds(id NodeID) []NodeID { return append([]NodeID(nil), g.preds[id]...) }

// Succs returns the ordered successor list of a node.
func (g *Graph) Succs(id NodeID) []NodeID { return append([]NodeID(nil), g.succs[id]...) }

// PredsView returns the ordered predecessor list of a node without
// copying. The slice aliases the Graph's internal storage and must be
// treated as read-only; it is valid for the Graph's lifetime.
func (g *Graph) PredsView(id NodeID) []NodeID { return g.preds[id] }

// SuccsView returns the ordered successor list of a node without copying,
// under the same read-only aliasing contract as PredsView.
func (g *Graph) SuccsView(id NodeID) []NodeID { return g.succs[id] }

// NumEdges returns the number of edges (the size of the dense edge-ID
// space used by EdgeByID, PredEdgeIDs and SuccEdgeIDs).
func (g *Graph) NumEdges() int { return len(g.edges) }

// EdgeByID returns the key of the edge with the given dense ID.
func (g *Graph) EdgeByID(id int32) EdgeKey { return g.edges[id] }

// AlphaByID returns the splitting weight of the edge with the given ID.
func (g *Graph) AlphaByID(id int32) float64 { return g.alphaByID[id] }

// HByID returns the throughput function of the edge with the given ID
// (nil for source edges).
func (g *Graph) HByID(id int32) ThroughputFunc { return g.hByID[id] }

// PredEdgeIDs returns a node's incoming edge IDs in predecessor order.
// Read-only view; aliases Graph storage.
func (g *Graph) PredEdgeIDs(id NodeID) []int32 { return g.predEdges[id] }

// SuccEdgeIDs returns a node's outgoing edge IDs in successor order.
// Read-only view; aliases Graph storage.
func (g *Graph) SuccEdgeIDs(id NodeID) []int32 { return g.succEdges[id] }

// Alpha returns the capacity-splitting weight of edge e.
func (g *Graph) Alpha(e EdgeKey) float64 { return g.edgeAlpha[e] }

// H returns the throughput function of edge e (nil for source edges).
func (g *Graph) H(e EdgeKey) ThroughputFunc { return g.edgeH[e] }

// FlowReport is the result of one steady-state evaluation of the DAG.
// A report may be reused across evaluations via EvaluateInto, which
// recycles its slices instead of allocating fresh ones.
type FlowReport struct {
	// Throughput is f(y): the total inflow into sinks (tuples/s).
	Throughput float64
	// Inflow[i] is the total throughput arriving at operator index i.
	Inflow []float64
	// Demand[i] is Σ_{j∈S_i} h_{i,j}(e_i): the output the operator would
	// emit with unlimited capacity. l_i = Demand[i] − y[i] is the
	// soft-constraint of Eq. 11.
	Demand []float64
	// Output[i] is the actual (capacity-truncated) total emitted.
	Output []float64

	// flows[edgeID] is the per-edge carried throughput and inBuf the
	// per-operator input working vector — internal scratch kept on the
	// report so EvaluateInto runs allocation-free once warmed.
	flows []float64
	inBuf []float64
}

func (g *Graph) checkEvalArgs(rates, y []float64) error {
	if len(rates) != len(g.sources) {
		return fmt.Errorf("dag: got %d source rates, want %d", len(rates), len(g.sources))
	}
	if len(y) != len(g.operators) {
		return fmt.Errorf("dag: got %d capacities, want %d", len(y), len(g.operators))
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("dag: source rate[%d] = %v invalid", i, r)
		}
	}
	for i, c := range y {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("dag: capacity y[%d] = %v invalid", i, c)
		}
	}
	return nil
}

// Evaluate computes the steady-state flows for given source rates (by
// source index) and operator capacities y (by operator index), applying
// the truncation of Eq. 4 along one topological pass.
func (g *Graph) Evaluate(rates, y []float64) (*FlowReport, error) {
	rep := &FlowReport{}
	if err := g.EvaluateInto(rep, rates, y); err != nil {
		return nil, err
	}
	return rep, nil
}

// EvaluateInto is Evaluate with caller-owned storage: rep's slices are
// grown once and reused, so repeated evaluations (the per-slot violation
// accounting, grid sweeps, brute-force optimum search) run allocation-free
// after the first call. rep must not be shared between goroutines.
//
//lint:hotpath
func (g *Graph) EvaluateInto(rep *FlowReport, rates, y []float64) error {
	if err := g.checkEvalArgs(rates, y); err != nil {
		return err
	}
	m := len(g.operators)
	if cap(rep.Inflow) < m {
		rep.Inflow = make([]float64, m)
		rep.Demand = make([]float64, m)
		rep.Output = make([]float64, m)
	}
	rep.Inflow = rep.Inflow[:m]
	rep.Demand = rep.Demand[:m]
	rep.Output = rep.Output[:m]
	clear(rep.Inflow)
	clear(rep.Demand)
	clear(rep.Output)
	if cap(rep.flows) < len(g.edges) {
		rep.flows = make([]float64, len(g.edges))
	}
	flows := rep.flows[:len(g.edges)]
	clear(flows)
	if cap(rep.inBuf) < g.maxInEdges {
		rep.inBuf = make([]float64, g.maxInEdges)
	}
	rep.Throughput = 0
	for _, id := range g.topo {
		switch g.kinds[id] {
		case Source:
			rate := rates[g.srcIndex[id]]
			for _, ei := range g.succEdges[id] {
				flows[ei] = g.alphaByID[ei] * rate
			}
		case Operator:
			oi := g.opIndex[id]
			in := rep.inBuf[:len(g.predEdges[id])]
			for k, ei := range g.predEdges[id] {
				in[k] = flows[ei]
				rep.Inflow[oi] += in[k]
			}
			for _, ei := range g.succEdges[id] {
				want := g.hByID[ei].Eval(in)
				rep.Demand[oi] += want
				flow := math.Min(g.alphaByID[ei]*y[oi], want)
				flows[ei] = flow
				rep.Output[oi] += flow
			}
		case Sink:
			for _, ei := range g.predEdges[id] {
				rep.Throughput += flows[ei]
			}
		}
	}
	return nil
}

// Throughput is shorthand for Evaluate(...).Throughput.
func (g *Graph) Throughput(rates, y []float64) (float64, error) {
	rep, err := g.Evaluate(rates, y)
	if err != nil {
		return 0, err
	}
	return rep.Throughput, nil
}

// Workspace is the reusable scratch of LagrangianGradient: the forward
// sweep's FlowReport plus the per-edge flow adjoints, the gradient and one
// operator's input-adjoint vector, grown on first use and reused by every
// later call. One Workspace may serve graphs of different
// sizes. The zero value is ready to use; a Workspace is not safe for
// concurrent use.
type Workspace struct {
	rep   FlowReport
	adj   []float64 // edge ID -> ∂L/∂flow
	grad  []float64 // operator index -> ∂L/∂y
	inAdj []float64
}

// Gradient returns f(y) and ∂f/∂y_i for every operator, computed by one
// reverse sweep over the topological evaluation (the substitute for the
// paper's PyTorch-autograd bottleneck identification). It is the
// Lagrangian at λ = 0 on a fresh workspace, so the gradient is the
// caller's.
func (g *Graph) Gradient(rates, y []float64) (float64, []float64, error) {
	return g.LagrangianGradient(new(Workspace), rates, y, make([]float64, len(g.operators)))
}

// LagrangianGradient returns the per-slot Lagrangian of Eq. 13,
//
//	L(y, λ) = f(y) − Σ_i λ_i · (demand_i(y) − y_i),
//
// and its gradient with respect to y. The online saddle point and online
// gradient descent algorithms maximize this over y. The evaluation runs
// on w's storage: the returned gradient aliases w and is valid only until
// the next call with w.
//
// The forward pass is EvaluateInto. The reverse pass walks the topological
// order backwards and adds every adjoint in the order a reverse-mode tape
// of that evaluation would (with the λ terms taped last and min ties
// routed to the capacity branch), so the result is bit-for-bit the taped
// gradient.
func (g *Graph) LagrangianGradient(w *Workspace, rates, y, lambda []float64) (float64, []float64, error) {
	if err := g.EvaluateInto(&w.rep, rates, y); err != nil {
		return 0, nil, err
	}
	if len(lambda) != len(g.operators) {
		return 0, nil, fmt.Errorf("dag: got %d multipliers, want %d", len(lambda), len(g.operators))
	}
	for i, l := range lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return 0, nil, fmt.Errorf("dag: multiplier λ[%d] = %v invalid", i, l)
		}
	}
	val := w.rep.Throughput
	for i, l := range lambda {
		if l != 0 {
			val -= l * (w.rep.Demand[i] - y[i])
		}
	}
	return val, w.reverse(g, y, lambda), nil
}

// reverse is LagrangianGradient's reverse sweep over the flows w.rep
// holds for y. The returned gradient aliases w.
//
//lint:hotpath
func (w *Workspace) reverse(g *Graph, y, lambda []float64) []float64 {
	if cap(w.adj) < len(g.edges) {
		w.adj = make([]float64, len(g.edges))
	}
	if cap(w.grad) < len(g.operators) {
		w.grad = make([]float64, len(g.operators))
	}
	if cap(w.inAdj) < g.maxInEdges {
		w.inAdj = make([]float64, g.maxInEdges)
	}
	flows := w.rep.flows[:len(g.edges)]
	adj := w.adj[:len(g.edges)]
	grad := w.grad[:len(g.operators)]
	// Every edge's adjoint is complete before it is read: its head comes
	// later in topological order, so the backward walk visits it first.
	for t := len(g.topo) - 1; t >= 0; t-- {
		id := g.topo[t]
		switch g.kinds[id] {
		case Sink:
			for _, ei := range g.predEdges[id] {
				adj[ei] = 1
			}
		case Operator:
			oi := g.opIndex[id]
			lam := lambda[oi]
			preds := g.predEdges[id]
			in := w.rep.inBuf[:len(preds)] // EvaluateInto is done with it
			inAdj := w.inAdj[:len(preds)]
			for k, ei := range preds {
				in[k] = flows[ei]
			}
			clear(inAdj)
			// A tape of L records −λ_i·(demand_i − y_i) last, so y_i's
			// adjoint starts at λ_i and every h output's ends with −λ_i.
			gy := lam
			succ := g.succEdges[id]
			for s := len(succ) - 1; s >= 0; s-- {
				ei := succ[s]
				alpha := g.alphaByID[ei]
				var ah float64
				if a := adj[ei]; a != 0 {
					// flow = min(α·y, h), ties to α·y.
					if flows[ei] == alpha*y[oi] {
						gy += a * alpha
					} else {
						ah = a
					}
				}
				if ah -= lam; ah != 0 {
					g.hByID[ei].AddVJP(in, ah, inAdj)
				}
			}
			grad[oi] = gy
			for k, ei := range preds {
				adj[ei] = inAdj[k]
			}
		}
	}
	return grad
}
