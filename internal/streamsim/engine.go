package streamsim

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/dag"
	"dragster/internal/stats"
)

// The simulated cloud's noise (Eq. 8 of the paper's testbed): every
// tenant engine runs with these, and the capacity planner probes with
// them so its curves see the noise the live run will.
const (
	// CloudNoiseSigma is the per-slot multiplicative capacity noise.
	CloudNoiseSigma = 0.05
	// CloudUtilNoiseSigma is the additive noise on CPU readings.
	CloudUtilNoiseSigma = 0.02
)

// Config assembles an Engine.
type Config struct {
	// Graph is the application topology.
	Graph *dag.Graph
	// Models holds one capacity model per operator (dense operator index).
	Models []CapacityModel
	// NoiseSigma is the per-slot multiplicative cloud-noise deviation on
	// operator capacity (log-normal, mean 1). 0 disables noise.
	NoiseSigma float64
	// UtilNoiseSigma perturbs the reported CPU utilization (additive
	// Gaussian before clamping to (0, 1]). 0 disables.
	UtilNoiseSigma float64
	// MaxBufferPerEdge drops tuples beyond this backlog on any input edge,
	// counting them in DroppedTotal. 0 means unbounded buffering.
	MaxBufferPerEdge float64
	// RNG drives all stochastic behaviour. Required when any noise is set;
	// otherwise optional.
	RNG *stats.RNG
}

// OpTick is one operator's activity during a tick.
type OpTick struct {
	Arrived  float64 // tuples arriving on input edges this tick
	Consumed float64 // input tuples drained from buffers
	Emitted  float64 // output tuples produced
	Buffered float64 // backlog across input edges after the tick
	Capacity float64 // effective (noise-scaled) capacity this tick
	Util     float64 // reported CPU utilization in [0, 1] (noisy)
}

// MaxLatencySec caps the per-tick latency estimate: an operator with
// backlog but no drain would otherwise report infinity.
const MaxLatencySec = 3600

// TickStats summarizes one engine tick.
type TickStats struct {
	SinkThroughput float64 // tuples absorbed by sinks this tick
	Paused         bool    // true while a reconfiguration pause is active
	// LatencySec estimates the end-to-end tuple latency by Little's law:
	// the sum over operators of backlog/drain-rate (capped at
	// MaxLatencySec). The paper's dynamic-fit bound translates into a
	// bound on exactly this quantity.
	LatencySec float64
	// Ops holds per-operator activity by dense operator index. The slice
	// aliases an Engine scratch buffer and is only valid until the next
	// Tick; callers that retain it across ticks must copy it.
	Ops []OpTick
}

// Engine simulates the dataflow. Not safe for concurrent use.
type Engine struct {
	cfg   Config
	g     *dag.Graph
	tasks []int
	cpu   []int     // per-pod CPU millicores per operator (default 1000)
	caps  []float64 // capacityOf per operator, refreshed when tasks or cpu change

	slotNoise []float64 // capacity factor per operator, redrawn per slot
	pause     int       // remaining pause ticks

	// Flattened dataflow plan, precomputed at New from the graph's dense
	// edge index so the per-tick loops do no map lookups and no
	// adjacency copies. Edge IDs are the graph's (dag.Graph.EdgeByID);
	// all adjacency slices below are read-only views into the graph or
	// engine-owned arrays built once.
	edgeBuf  []float64  // backlog per edge ID
	edges    []edgePlan // constants per edge ID
	srcEdges [][]int32  // outgoing edge IDs per dense source index
	steps    []tickStep // operators and sinks with their adjacency, in topological order
	opPreds  [][]int32  // incoming edge IDs per dense operator index

	// Per-tick scratch buffers: Tick runs once per simulated second, so
	// its working slices are grown once and reused instead of allocated
	// per call. opsBuf backs TickStats.Ops (valid until the next Tick);
	// qBuf/demBuf are tickOperator's per-edge working vectors.
	opsBuf []OpTick
	qBuf   []float64
	demBuf []float64

	dropped   float64
	processed float64 // cumulative sink throughput
}

// tickStep is one node of the per-tick topological walk: an operator that
// drains its input edges or a sink that absorbs them.
type tickStep struct {
	kind  dag.Kind
	op    int32   // dense operator index when kind == dag.Operator
	preds []int32 // incoming edge IDs, predecessor order
	succs []int32 // outgoing edge IDs, successor order
	// y is the operator's effective capacity caps·slotNoise, which
	// changes only when caps or slotNoise do (see refreshY).
	y float64
}

// edgePlan holds one edge's per-tick constants.
type edgePlan struct {
	alpha float64 // splitting weight α
	// alphaY is α·y of the edge's tail operator (operator out-edges
	// only), refreshed with tickStep.y.
	alphaY float64
	h      dag.ThroughputFunc // nil for source edges
	k      float64            // the Linear's rate when linear
	toOp   int32              // dense operator index of the edge head, -1 otherwise
	// linear marks a one-input Linear h, which tickOperator evaluates
	// inline as k·q[0] (mathx.Dot's sum over one term) instead of
	// through the interface. dag.Build checks every Linear's arity, so
	// its operator has exactly one input.
	linear bool
}

// New validates cfg and returns an Engine with all parallelism at 1 and
// empty buffers. Call SetTasks to apply an initial configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, errors.New("streamsim: nil graph")
	}
	if len(cfg.Models) != cfg.Graph.NumOperators() {
		return nil, fmt.Errorf("streamsim: %d capacity models for %d operators", len(cfg.Models), cfg.Graph.NumOperators())
	}
	for i, m := range cfg.Models {
		if m == nil {
			return nil, fmt.Errorf("streamsim: nil capacity model for operator %d", i)
		}
	}
	if cfg.NoiseSigma < 0 || cfg.UtilNoiseSigma < 0 || cfg.MaxBufferPerEdge < 0 {
		return nil, errors.New("streamsim: negative noise or buffer parameter")
	}
	if (cfg.NoiseSigma > 0 || cfg.UtilNoiseSigma > 0) && cfg.RNG == nil {
		return nil, errors.New("streamsim: noise requested without an RNG")
	}
	e := &Engine{
		cfg:       cfg,
		g:         cfg.Graph,
		tasks:     make([]int, cfg.Graph.NumOperators()),
		cpu:       make([]int, cfg.Graph.NumOperators()),
		caps:      make([]float64, cfg.Graph.NumOperators()),
		slotNoise: make([]float64, cfg.Graph.NumOperators()),
	}
	e.buildPlan()
	e.Reset()
	return e, nil
}

// Reset returns the engine to the state New leaves it in: empty
// buffers, zero drop and sink totals, no pause, every operator at one
// task of 1000 millicores, and unit slot noise. It keeps the
// configuration, the flattened plan and the scratch buffers, and it
// does not touch the RNG: an engine that is Reset and whose RNG is
// reseeded ticks exactly like a fresh engine on a fresh RNG of that
// seed.
func (e *Engine) Reset() {
	for i := range e.tasks {
		e.tasks[i] = 1
		e.cpu[i] = 1000
		e.slotNoise[i] = 1
	}
	e.refreshCapacity()
	clear(e.edgeBuf)
	e.pause = 0
	e.dropped = 0
	e.processed = 0
}

// buildPlan materializes the flattened per-tick plan from the graph's
// dense edge index: one pass at construction so Tick, tickOperator and
// addToEdge run on arrays with no map lookups or adjacency copies.
func (e *Engine) buildPlan() {
	g := e.g
	nEdges := g.NumEdges()
	e.edgeBuf = make([]float64, nEdges)
	e.edges = make([]edgePlan, nEdges)
	for ei := range e.edges {
		id := int32(ei)
		ep := &e.edges[ei]
		ep.alpha = g.AlphaByID(id)
		ep.h = g.HByID(id)
		ep.toOp = int32(g.OperatorIndex(g.EdgeByID(id).To))
		if lin, ok := ep.h.(dag.Linear); ok && len(lin.K) == 1 {
			ep.linear, ep.k = true, lin.K[0]
		}
	}
	e.srcEdges = make([][]int32, g.NumSources())
	for si, src := range g.Sources() {
		e.srcEdges[si] = g.SuccEdgeIDs(src)
	}
	// Sources are pushed separately, so the tick walks the graph's
	// topological order without them.
	for _, id := range g.TopoOrder() {
		if g.KindOf(id) == dag.Source {
			continue
		}
		e.steps = append(e.steps, tickStep{
			kind:  g.KindOf(id),
			op:    int32(g.OperatorIndex(id)),
			preds: g.PredEdgeIDs(id),
			succs: g.SuccEdgeIDs(id),
		})
	}
	e.opPreds = make([][]int32, g.NumOperators())
	for _, id := range g.Operators() {
		e.opPreds[g.OperatorIndex(id)] = g.PredEdgeIDs(id)
	}
}

// SetTasks applies a new parallelism vector (dense operator index order).
// It does not pause the engine; the Flink layer calls Pause separately to
// model the savepoint stop-and-resume.
func (e *Engine) SetTasks(tasks []int) error {
	if len(tasks) != len(e.tasks) {
		return fmt.Errorf("streamsim: got %d task counts, want %d", len(tasks), len(e.tasks))
	}
	for i, n := range tasks {
		if n < 0 {
			return fmt.Errorf("streamsim: negative task count %d for operator %d", n, i)
		}
	}
	copy(e.tasks, tasks)
	e.refreshCapacity()
	return nil
}

// TasksView returns the current parallelism vector without copying. The
// slice aliases Engine state: it is read-only and only valid until the
// next SetTasks — the same aliasing contract as TickStats.Ops. Callers on
// the controller loop use it to avoid a per-round allocation; anything
// that retains the values must copy them (or call Tasks).
func (e *Engine) TasksView() []int { return e.tasks }

// SetCPU applies per-pod CPU allocations (millicores, dense operator
// index order). Only models implementing ResourceAware react; others keep
// their task-count capacity.
func (e *Engine) SetCPU(cpuMilli []int) error {
	if len(cpuMilli) != len(e.cpu) {
		return fmt.Errorf("streamsim: got %d CPU allocations, want %d", len(cpuMilli), len(e.cpu))
	}
	for i, c := range cpuMilli {
		if c < 0 {
			return fmt.Errorf("streamsim: negative CPU %d for operator %d", c, i)
		}
	}
	copy(e.cpu, cpuMilli)
	e.refreshCapacity()
	return nil
}

// CPUView returns the per-pod CPU vector without copying, under the same
// read-only aliasing contract as TasksView (valid until the next SetCPU).
func (e *Engine) CPUView() []int { return e.cpu }

// refreshCapacity re-evaluates every operator's capacity into caps. The
// allocation changes at most once per slot while Tick reads the capacity
// every second, and models are pure (see CapacityModel), so the cache is
// exact.
func (e *Engine) refreshCapacity() {
	for i := range e.caps {
		e.caps[i] = e.capacityOf(i)
	}
	e.refreshY()
}

// refreshY recomputes every operator's y = caps·slotNoise and its
// out-edges' α·y, the products tickOperator would otherwise form every
// second. Each is the same float expression tickOperator used, so the
// cached values are bit-identical; callers run it whenever caps or
// slotNoise change.
func (e *Engine) refreshY() {
	for i := range e.steps {
		step := &e.steps[i]
		if step.kind != dag.Operator {
			continue
		}
		step.y = e.caps[step.op] * e.slotNoise[step.op]
		for _, ei := range step.succs {
			e.edges[ei].alphaY = e.edges[ei].alpha * step.y
		}
	}
}

// capacityOf evaluates operator i's ground-truth capacity under the
// current (tasks, cpu) allocation.
func (e *Engine) capacityOf(i int) float64 {
	if ra, ok := e.cfg.Models[i].(ResourceAware); ok {
		return ra.CapacityWithCPU(e.tasks[i], e.cpu[i])
	}
	return e.cfg.Models[i].Capacity(e.tasks[i])
}

// Pause stalls all processing for the given number of ticks (sources keep
// emitting into edge buffers, as Kafka would keep accumulating during a
// Flink savepoint restore).
func (e *Engine) Pause(ticks int) {
	if ticks < 0 {
		panic("streamsim: negative pause")
	}
	e.pause = ticks
}

// BeginSlot redraws the per-slot capacity noise. Call once per decision
// slot (the cloud-noise level varies slot-to-slot, not tick-to-tick).
func (e *Engine) BeginSlot() {
	if e.cfg.NoiseSigma == 0 {
		return
	}
	s := e.cfg.NoiseSigma
	for i := range e.slotNoise {
		// mean-1 log-normal: E[exp(N(−σ²/2, σ))] = 1
		e.slotNoise[i] = e.cfg.RNG.LogNormal(-s*s/2, s)
	}
	e.refreshY()
}

// TrueCapacity returns the noise-free capacity of operator i at its
// current allocation (test/oracle use only — the optimizer must not call
// this).
func (e *Engine) TrueCapacity(i int) float64 {
	return e.caps[i]
}

// DroppedTotal returns cumulative tuples dropped to buffer caps.
func (e *Engine) DroppedTotal() float64 { return e.dropped }

// BufferedTotal returns the backlog summed over all edges. Edges are
// visited in topological order so the float sum is identical across runs
// (an order-free reduction would make the rounding, and thus rendered
// figures, depend on iteration order).
func (e *Engine) BufferedTotal() float64 {
	var s float64
	for i := range e.steps {
		for _, ei := range e.steps[i].preds {
			s += e.edgeBuf[ei]
		}
	}
	return s
}

// Tick advances the simulation by one second with the given offered source
// rates (tuples/s per dense source index). The returned TickStats.Ops
// aliases a reused scratch buffer: copy it before the next Tick if you
// keep it.
func (e *Engine) Tick(rates []float64) (TickStats, error) {
	if len(rates) != e.g.NumSources() {
		//lint:allow hotpath cold validation guard: a rate-count mismatch is a caller bug, never hit in steady state
		return TickStats{}, fmt.Errorf("streamsim: got %d rates, want %d sources", len(rates), e.g.NumSources())
	}
	nOps := e.g.NumOperators()
	if cap(e.opsBuf) < nOps {
		e.opsBuf = make([]OpTick, nOps)
	}
	ops := e.opsBuf[:nOps]
	clear(ops)
	st := TickStats{Ops: ops}

	// Sources always emit: backlog accumulates during pauses.
	for si := range e.srcEdges {
		rate := rates[si]
		if rate < 0 || math.IsNaN(rate) {
			//lint:allow hotpath cold validation guard: invalid rates abort the run, never hit in steady state
			return TickStats{}, fmt.Errorf("streamsim: invalid rate %v for source %d", rate, si)
		}
		for _, ei := range e.srcEdges[si] {
			e.addToEdge(ei, e.edges[ei].alpha*rate, &st)
		}
	}

	if e.pause > 0 {
		e.pause--
		st.Paused = true
		// Buffers still count as arrived for the stats; nothing drains,
		// so the latency estimate saturates.
		for i := range st.Ops {
			st.Ops[i].Buffered = e.opBacklog(i)
			if st.Ops[i].Buffered > 0 {
				st.LatencySec = MaxLatencySec
			}
		}
		return st, nil
	}

	// Operators in topological order. Sinks absorb flows as they appear.
	for i := range e.steps {
		step := &e.steps[i]
		switch step.kind {
		case dag.Operator:
			e.tickOperator(step, &st)
		case dag.Sink:
			for _, ei := range step.preds {
				st.SinkThroughput += e.edgeBuf[ei]
				e.edgeBuf[ei] = 0
			}
		}
	}
	e.processed += st.SinkThroughput
	for i := range st.Ops {
		op := &st.Ops[i]
		switch {
		case op.Buffered <= 0:
			// no queueing delay at this operator
		case op.Consumed > 0:
			st.LatencySec += op.Buffered / op.Consumed
		default:
			st.LatencySec = MaxLatencySec
		}
		if st.LatencySec > MaxLatencySec {
			st.LatencySec = MaxLatencySec
		}
	}
	return st, nil
}

func (e *Engine) tickOperator(step *tickStep, st *TickStats) {
	oi := step.op
	preds := step.preds
	succs := step.succs

	if cap(e.qBuf) < len(preds) {
		e.qBuf = make([]float64, len(preds))
	}
	q := e.qBuf[:len(preds)]
	var backlog float64
	for k, ei := range preds {
		q[k] = e.edgeBuf[ei]
		backlog += q[k]
	}

	y := step.y
	op := &st.Ops[oi]
	op.Capacity = y

	if y <= 0 {
		op.Buffered = backlog
		return
	}

	// Desired emissions and the feasible uniform drain fraction φ.
	if cap(e.demBuf) < len(succs) {
		e.demBuf = make([]float64, len(succs))
	}
	demands := e.demBuf[:len(succs)]
	phi := 1.0
	anyDemand := false
	for j, ei := range succs {
		ep := &e.edges[ei]
		var d float64
		if ep.linear {
			d += ep.k * q[0]
		} else {
			d = ep.h.Eval(q)
		}
		demands[j] = d
		if d > 0 {
			anyDemand = true
			r := ep.alphaY / d
			if r < phi {
				phi = r
			}
		}
	}
	if !anyDemand {
		op.Buffered = backlog
		return
	}
	if phi > 1 {
		phi = 1
	}

	var emitted float64
	for j, ei := range succs {
		out := phi * demands[j]
		if out <= 0 {
			continue
		}
		emitted += out
		e.addToEdge(ei, out, st)
	}
	var consumed float64
	for k, ei := range preds {
		take := phi * q[k]
		e.edgeBuf[ei] = q[k] - take
		consumed += take
	}

	op.Consumed = consumed
	op.Emitted = emitted
	op.Buffered = backlog - consumed

	util := emitted / y
	if util > 1 {
		util = 1
	}
	if e.cfg.UtilNoiseSigma > 0 {
		util += e.cfg.RNG.Normal(0, e.cfg.UtilNoiseSigma)
	}
	if util < 1e-4 {
		util = 1e-4 // a running JVM never reports exactly zero CPU
	}
	if util > 1 {
		util = 1
	}
	op.Util = util
}

// addToEdge appends flow to an edge buffer, enforcing the cap and counting
// arrivals for the destination operator.
func (e *Engine) addToEdge(ei int32, amount float64, st *TickStats) {
	if amount <= 0 {
		return
	}
	if oi := e.edges[ei].toOp; oi >= 0 {
		st.Ops[oi].Arrived += amount
	}
	next := e.edgeBuf[ei] + amount
	if e.cfg.MaxBufferPerEdge > 0 && next > e.cfg.MaxBufferPerEdge {
		e.dropped += next - e.cfg.MaxBufferPerEdge
		next = e.cfg.MaxBufferPerEdge
	}
	e.edgeBuf[ei] = next
}

// opBacklog sums the backlog on an operator's input edges.
//
//lint:hotpath
func (e *Engine) opBacklog(oi int) float64 {
	var s float64
	for _, ei := range e.opPreds[oi] {
		s += e.edgeBuf[ei]
	}
	return s
}
