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

	// The edge index, built once at Build: edge IDs are assigned walking
	// nodes in ID order and each node's successor list in declaration
	// order. A node's predecessor order defines the input-vector order
	// for its out-edges' h.
	edges      []EdgeKey        // edge ID -> key
	alphaByID  []float64        // edge ID -> α
	hByID      []ThroughputFunc // edge ID -> h (nil for source edges)
	predEdges  [][]int32        // node -> incoming edge IDs, preds order
	succEdges  [][]int32        // node -> outgoing edge IDs, succs order
	maxInEdges int              // max len(preds) over all nodes

	topo      []NodeID
	sources   []NodeID
	operators []NodeID
	opIdx     []int // NodeID -> dense operator index, -1 for other kinds

	// The evaluation plan the forward and reverse sweeps walk, compiled
	// once at Build. Sources have no inputs and sinks no outputs, so
	// pushing every source first and summing every sink last keeps each
	// sweep's float order that of the topological walk.
	opPlan    []opStep    // operators in topological order
	sinkEdges []int32     // edges into sinks: sinks in topological order, preds order
	linK      [][]float64 // edge ID -> Linear rate vector (nil unless h is a Linear)
	piecewise bool        // every operator out-edge is piecewise linear, and there are ≤ 64
}

// opStep is one operator's entry in the evaluation plan.
type opStep struct {
	index int     // dense operator index
	preds []int32 // incoming edge IDs, preds order
	succs []int32 // outgoing edge IDs, succs order
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
		names: append([]string(nil), b.names...),
		kinds: append([]Kind(nil), b.kinds...),
		opIdx: make([]int, n),
	}
	preds := make([][]NodeID, n)
	succs := make([][]NodeID, n)
	byKey := make(map[EdgeKey]builderEdge, len(b.edges))
	for _, e := range b.edges {
		if e.from < 0 || int(e.from) >= n || e.to < 0 || int(e.to) >= n {
			return nil, fmt.Errorf("dag: edge (%d→%d) references unknown node", e.from, e.to)
		}
		key := EdgeKey{From: e.from, To: e.to}
		if _, dup := byKey[key]; dup {
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
		// The Graph is immutable: it must not share the caller's K.
		switch h := e.h.(type) {
		case Linear:
			e.h = Linear{K: append([]float64(nil), h.K...)}
		case MinRate:
			e.h = MinRate{K: append([]float64(nil), h.K...)}
		case Tanh:
			e.h = Tanh{K1: h.K1, K: append([]float64(nil), h.K...)}
		}
		preds[e.to] = append(preds[e.to], e.from)
		succs[e.from] = append(succs[e.from], e.to)
		byKey[key] = e
	}

	sinks := 0
	for id := 0; id < n; id++ {
		nid := NodeID(id)
		g.opIdx[id] = -1
		switch g.kinds[id] {
		case Source:
			if len(succs[id]) == 0 {
				return nil, fmt.Errorf("dag: source %q has no successors", g.names[id])
			}
			g.sources = append(g.sources, nid)
		case Operator:
			if len(preds[id]) == 0 {
				return nil, fmt.Errorf("dag: operator %q has no predecessors", g.names[id])
			}
			if len(succs[id]) == 0 {
				return nil, fmt.Errorf("dag: operator %q has no successors", g.names[id])
			}
			g.opIdx[id] = len(g.operators)
			g.operators = append(g.operators, nid)
		case Sink:
			if len(preds[id]) == 0 {
				return nil, fmt.Errorf("dag: sink %q has no predecessors", g.names[id])
			}
			sinks++
		}
		if len(succs[id]) > 0 {
			var sum float64
			for _, s := range succs[id] {
				sum += byKey[EdgeKey{From: nid, To: s}].alpha
			}
			if math.Abs(sum-1) > 1e-9 {
				return nil, fmt.Errorf("dag: splitting weights leaving %q sum to %v, want 1", g.names[id], sum)
			}
		}
	}
	if sinks == 0 {
		return nil, errors.New("dag: graph has no sink")
	}
	if len(g.sources) == 0 {
		return nil, errors.New("dag: graph has no source")
	}

	topo, err := topoSort(preds, succs)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.buildEdgeIndex(preds, succs, byKey)
	g.buildPlan()

	if err := g.probe(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildEdgeIndex assigns each edge a dense ID and materializes the flat
// per-node adjacency arrays every query and sweep iterates. Called once
// from Build with its adjacency lists and edges by key.
func (g *Graph) buildEdgeIndex(preds, succs [][]NodeID, byKey map[EdgeKey]builderEdge) {
	n := len(g.names)
	ids := make(map[EdgeKey]int32, len(byKey))
	g.succEdges = make([][]int32, n)
	g.predEdges = make([][]int32, n)
	for id := 0; id < n; id++ {
		from := NodeID(id)
		for _, to := range succs[id] {
			key := EdgeKey{From: from, To: to}
			ei := int32(len(g.edges))
			ids[key] = ei
			g.edges = append(g.edges, key)
			g.alphaByID = append(g.alphaByID, byKey[key].alpha)
			g.hByID = append(g.hByID, byKey[key].h)
			g.succEdges[id] = append(g.succEdges[id], ei)
		}
	}
	for id := 0; id < n; id++ {
		to := NodeID(id)
		for _, from := range preds[id] {
			g.predEdges[id] = append(g.predEdges[id], ids[EdgeKey{From: from, To: to}])
		}
		if len(preds[id]) > g.maxInEdges {
			g.maxInEdges = len(preds[id])
		}
	}
}

// buildPlan compiles the evaluation plan from the topological order and
// the flat edge index. Called once from Build, after buildEdgeIndex.
func (g *Graph) buildPlan() {
	g.linK = make([][]float64, len(g.edges))
	for ei, h := range g.hByID {
		if l, ok := h.(Linear); ok {
			g.linK[ei] = l.K
		}
	}
	g.opPlan = make([]opStep, 0, len(g.operators))
	opEdges := 0
	g.piecewise = true
	for _, id := range g.topo {
		switch g.kinds[id] {
		case Operator:
			g.opPlan = append(g.opPlan, opStep{index: g.opIdx[id], preds: g.predEdges[id], succs: g.succEdges[id]})
			for _, ei := range g.succEdges[id] {
				switch g.hByID[ei].(type) {
				case Linear, *LearnedLinear, MinRate:
				default:
					g.piecewise = false
				}
			}
			opEdges += len(g.succEdges[id])
		case Sink:
			g.sinkEdges = append(g.sinkEdges, g.predEdges[id]...)
		}
	}
	g.piecewise = g.piecewise && opEdges <= 64
}

// topoSort runs Kahn's algorithm, returning an order or a cycle error.
// The queue starts from the nodes without predecessors in ID order and
// pops first in, first out, pushing successors in declaration order.
func topoSort(preds, succs [][]NodeID) ([]NodeID, error) {
	n := len(preds)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(preds[id])
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
		for _, s := range succs[id] {
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

// probe checks every Linear's arity, then runs a dummy evaluation and one
// gradient sweep to surface throughput-function dimension mismatches at
// build time instead of first use. The sweep runs at y = 0 with λ = 1:
// every edge then takes the capacity branch and every h receives the
// adjoint −1, so each AddVJP runs.
func (g *Graph) probe() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dag: throughput function probe failed: %v", r)
		}
	}()
	// The sweeps evaluate a Linear inline, without its own arity check.
	for ei, k := range g.linK {
		if k != nil {
			Linear{K: k}.check(len(g.predEdges[g.edges[ei].From]))
		}
	}
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

// TopoOrder returns every node ID in the topological order Build
// computed: the sources in ID order, then Kahn's first-in, first-out walk
// pushing successors in declaration order. Every sweep and the stream
// simulator's tick visit nodes in this order.
func (g *Graph) TopoOrder() []NodeID { return append([]NodeID(nil), g.topo...) }

// Name returns the node's name.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// KindOf returns the node's kind.
func (g *Graph) KindOf(id NodeID) Kind { return g.kinds[id] }

// OperatorIndex returns the dense index of an operator node (the position
// of its capacity in capacity vectors), or -1 if id is not an operator.
func (g *Graph) OperatorIndex(id NodeID) int {
	if id < 0 || int(id) >= len(g.opIdx) {
		return -1
	}
	return g.opIdx[id]
}

// OperatorID returns the node ID of the operator with dense index i.
func (g *Graph) OperatorID(i int) NodeID { return g.operators[i] }

// OperatorName returns the name of the operator with dense index i.
func (g *Graph) OperatorName(i int) string { return g.names[g.operators[i]] }

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

// nonNegFinite reports 0 ≤ v < +Inf: false for negatives, NaN and ±Inf
// in two comparisons, since the sweeps validate every argument per call.
func nonNegFinite(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

func (g *Graph) checkEvalArgs(rates, y []float64) error {
	if len(rates) != len(g.sources) {
		return fmt.Errorf("dag: got %d source rates, want %d", len(rates), len(g.sources))
	}
	if len(y) != len(g.operators) {
		return fmt.Errorf("dag: got %d capacities, want %d", len(y), len(g.operators))
	}
	for i, r := range rates {
		if !nonNegFinite(r) {
			return fmt.Errorf("dag: source rate[%d] = %v invalid", i, r)
		}
	}
	for i, c := range y {
		if !nonNegFinite(c) {
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
		rep.Output = make([]float64, m)
	}
	rep.Inflow = rep.Inflow[:m]
	rep.Output = rep.Output[:m]
	rep.Throughput = g.forward(rep, rates, y)
	for _, op := range g.opPlan {
		var inflow, output float64
		for _, ei := range op.preds {
			inflow += rep.flows[ei]
		}
		for _, ei := range op.succs {
			output += rep.flows[ei]
		}
		rep.Inflow[op.index], rep.Output[op.index] = inflow, output
	}
	return nil
}

// forward is the topological pass EvaluateInto and LagrangianForward
// share: it applies the truncation of Eq. 4 edge by edge over the plan,
// fills rep's flows and Demand, and returns the sink throughput. It
// leaves Inflow and Output, which the Lagrangian never reads, to
// EvaluateInto. Demand sums in successor order and sinks in topological
// order.
//
//lint:hotpath
func (g *Graph) forward(rep *FlowReport, rates, y []float64) (throughput float64) {
	m := len(g.operators)
	if cap(rep.Demand) < m {
		rep.Demand = make([]float64, m)
	}
	rep.Demand = rep.Demand[:m]
	if cap(rep.flows) < len(g.edges) {
		rep.flows = make([]float64, len(g.edges))
	}
	if cap(rep.inBuf) < g.maxInEdges {
		rep.inBuf = make([]float64, g.maxInEdges)
	}
	flows := rep.flows[:len(g.edges)]
	for i, id := range g.sources {
		rate := rates[i]
		for _, ei := range g.succEdges[id] {
			flows[ei] = g.alphaByID[ei] * rate
		}
	}
	for t := range g.opPlan {
		op := &g.opPlan[t]
		in := rep.inBuf[:len(op.preds)]
		for k, ei := range op.preds {
			in[k] = flows[ei]
		}
		yi := y[op.index]
		var demand float64
		for _, ei := range op.succs {
			// A Linear inline, in mathx.Dot's order; Build has checked
			// its arity. Any other h through its interface.
			var want float64
			if k := g.linK[ei]; k != nil {
				for i, kk := range k {
					want += kk * in[i]
				}
			} else {
				want = g.hByID[ei].Eval(in)
			}
			demand += want
			flows[ei] = min(g.alphaByID[ei]*yi, want) // math.Min's NaN and ±0 rules, inlined
		}
		rep.Demand[op.index] = demand
	}
	for _, ei := range g.sinkEdges {
		throughput += flows[ei]
	}
	return throughput
}

// Throughput is shorthand for Evaluate(...).Throughput.
func (g *Graph) Throughput(rates, y []float64) (float64, error) {
	rep, err := g.Evaluate(rates, y)
	if err != nil {
		return 0, err
	}
	return rep.Throughput, nil
}

// CoverDemand is the greedy demand-cover pass: every operator gets the
// smallest task count n in 1..maxTasks whose capacity capAt(op, n) covers
// its demand at the source rates, or maxTasks when none does (truncating
// downstream flow). Demands start from maxTasks everywhere and operators
// settle in index order, which is topological; flows depend only on
// upstream capacities, so one pass is exact. It returns the task vector
// and the capacities at it.
func (g *Graph) CoverDemand(rates []float64, maxTasks int, capAt func(op, n int) float64) (tasks []int, caps []float64, err error) {
	m := len(g.operators)
	tasks = make([]int, m)
	caps = make([]float64, m)
	for i := range tasks {
		tasks[i] = maxTasks
		caps[i] = capAt(i, maxTasks)
	}
	var rep FlowReport
	for i := range tasks {
		if err := g.EvaluateInto(&rep, rates, caps); err != nil {
			return nil, nil, err
		}
		chosen := maxTasks
		for n := 1; n <= maxTasks; n++ {
			if capAt(i, n) >= rep.Demand[i] {
				chosen = n
				break
			}
		}
		tasks[i], caps[i] = chosen, capAt(i, chosen)
	}
	return tasks, caps, nil
}

// Workspace is the reusable scratch of LagrangianGradient and its two
// halves: the forward sweep's flows and demands plus the per-edge flow
// adjoints, the gradient and one operator's input-adjoint vector, grown
// on first use and reused by every later call. One Workspace may serve
// graphs of different sizes. The zero value is ready to use; a Workspace
// is not safe for concurrent use.
type Workspace struct {
	rep   FlowReport // flows and Demand; Inflow and Output stay unused
	adj   []float64  // edge ID -> ∂L/∂flow
	grad  []float64  // operator index -> ∂L/∂y
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
// It is LagrangianForward followed by LagrangianReverse. The reverse
// sweep walks the topological order backwards and adds every adjoint in
// the order a reverse-mode tape of that evaluation would (with the λ
// terms taped last and min ties routed to the capacity branch), so the
// result is bit-for-bit the taped gradient.
func (g *Graph) LagrangianGradient(w *Workspace, rates, y, lambda []float64) (float64, []float64, error) {
	val, err := g.LagrangianForward(w, rates, y, lambda)
	if err != nil {
		return 0, nil, err
	}
	return val, g.LagrangianReverse(w, y, lambda), nil
}

// LagrangianForward is the forward half of LagrangianGradient: it
// validates the arguments as LagrangianGradient does and returns the same
// L(y, λ), bit for bit, without the gradient. The reverse sweep reads y
// only through each operator out-edge's capacity test, flow == α·y, so
// where every operator out-edge is a Linear the gradient is a function
// of λ and the branch pattern (which edges pass that test) alone, and L
// is linear on each pattern's cell.
func (g *Graph) LagrangianForward(w *Workspace, rates, y, lambda []float64) (val float64, err error) {
	if err := g.checkEvalArgs(rates, y); err != nil {
		return 0, err
	}
	if len(lambda) != len(g.operators) {
		return 0, fmt.Errorf("dag: got %d multipliers, want %d", len(lambda), len(g.operators))
	}
	for i, l := range lambda {
		if !nonNegFinite(l) {
			return 0, fmt.Errorf("dag: multiplier λ[%d] = %v invalid", i, l)
		}
	}
	val = g.forward(&w.rep, rates, y)
	for i, l := range lambda {
		if l != 0 {
			val -= l * (w.rep.Demand[i] - y[i])
		}
	}
	return val, nil
}

// PiecewiseLinear reports that every operator out-edge is a Linear, a
// LearnedLinear or a MinRate, and that there are at most 64 of them. Then,
// with each LearnedLinear read at its current k, every flow is the
// smallest of α·y and linear terms of the operator's inputs, and L(y, λ)
// is piecewise linear in y. The edge limit bounds the size of the exact
// level-1 solve, whose LP and branch-and-bound tree grow with the edge
// count.
func (g *Graph) PiecewiseLinear() bool { return g.piecewise }

// LagrangianReverse is the reverse half of LagrangianGradient: ∂L/∂y over
// the flows the last LagrangianForward on w left, which must have run on
// g with the same y and λ. The returned gradient aliases w and is valid
// only until the next call with w.
//
//lint:hotpath
func (g *Graph) LagrangianReverse(w *Workspace, y, lambda []float64) []float64 {
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
	for _, ei := range g.sinkEdges {
		adj[ei] = 1
	}
	// Every edge's adjoint is complete before it is read: its head comes
	// later in topological order, so the backward walk visits it first.
	for t := len(g.opPlan) - 1; t >= 0; t-- {
		op := &g.opPlan[t]
		lam := lambda[op.index]
		yi := y[op.index]
		in := w.rep.inBuf[:len(op.preds)] // the forward sweep is done with it
		for k, ei := range op.preds {
			in[k] = flows[ei]
		}
		inAdj := w.inAdj[:len(op.preds)]
		clear(inAdj)
		// A tape of L records −λ_i·(demand_i − y_i) last, so y_i's
		// adjoint starts at λ_i and every h output's ends with −λ_i.
		gy := lam
		for s := len(op.succs) - 1; s >= 0; s-- {
			ei := op.succs[s]
			alpha := g.alphaByID[ei]
			var ah float64
			if a := adj[ei]; a != 0 {
				// flow = min(α·y, h), ties to α·y.
				if flows[ei] == alpha*yi {
					gy += a * alpha
				} else {
					ah = a
				}
			}
			if ah -= lam; ah != 0 {
				if k := g.linK[ei]; k != nil {
					for i, kk := range k {
						inAdj[i] += ah * kk
					}
				} else {
					g.hByID[ei].AddVJP(in, ah, inAdj)
				}
			}
		}
		grad[op.index] = gy
		for k, ei := range op.preds {
			adj[ei] = inAdj[k]
		}
	}
	return grad
}
