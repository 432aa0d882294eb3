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

// MaxLatencySec caps the per-tick latency estimate: an operator with
// backlog but no drain would otherwise report infinity.
const MaxLatencySec = 3600

// Totals are the running sums of the ticks since the last BeginSlot,
// ClearTotals or Reset. Tick adds each value where it produces it, so a
// slot's report is read off them with no second walk over the ticks.
// Ops is by dense operator index, Rates by dense source index.
type Totals struct {
	Active, Paused int     // ticks that ran, and ticks spent in a reconfiguration pause
	Sink           float64 // tuples absorbed by sinks
	// Latency sums the per-tick Little's-law latency estimate: the sum
	// over operators of backlog/drain-rate, capped at MaxLatencySec and
	// saturated while paused with any backlog. The paper's dynamic-fit
	// bound translates into a bound on exactly this quantity.
	Latency float64
	Rates   []float64  // offered source rates
	Ops     []OpTotals // one record per operator
}

// OpTotals is one operator's record: its sums over the ticks and the
// tick's scratch, side by side so a tick's step touches one entry.
type OpTotals struct {
	// The tuples arriving on its input edges, drained from them and
	// produced; its reported (noisy) CPU utilization in (0, 1] over the
	// active ticks; and its input backlog after the last tick.
	Arrived, Consumed, Emitted, Util, Backlog float64
	// arrived sums the operator's arrivals within the tick (one with
	// several input edges adds them up before Arrived does), and
	// consumed holds its drain for the tick's latency estimate.
	arrived, consumed float64
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
	edgeBuf   []float64  // backlog per edge ID
	edges     []edgePlan // constants per edge ID
	srcEdges  [][]int32  // outgoing edge IDs per dense source index
	steps     []tickStep // operators with their adjacency, in topological order
	sinkEdges []int32    // sink in-edge IDs, sinks in topological order
	opPreds   [][]int32  // incoming edge IDs per dense operator index

	// qBuf and demBuf are tickOperator's per-edge working vectors, sized
	// once and reused.
	qBuf   []float64
	demBuf []float64

	tot     Totals
	dropped float64
}

// tickStep is one operator of the per-tick topological walk.
type tickStep struct {
	op    int32   // dense operator index
	preds []int32 // incoming edge IDs, predecessor order
	succs []int32 // outgoing edge IDs, successor order
	// y is the operator's effective capacity caps·slotNoise, which
	// changes only when caps or slotNoise do (see refreshY).
	y float64
	// linear marks an operator whose only out-edge is linear (see
	// edgePlan.linear). The walk steps it straight-line from the
	// constants below: its one in-edge and its out-edge, the out-edge's
	// head operator (-1 for a sink), its rate k and its α·y, refreshed
	// with y.
	linear    bool
	in, out   int32
	head      int32
	k, alphaY float64
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
	// linear marks a one-input Linear h, which the operator steps
	// evaluate inline as k·q[0] (mathx.Dot's sum over one term) instead
	// of through the interface. dag.Build checks every Linear's arity, so
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
	m := cfg.Graph.NumOperators()
	e := &Engine{
		cfg:       cfg,
		g:         cfg.Graph,
		tasks:     make([]int, m),
		cpu:       make([]int, m),
		caps:      make([]float64, m),
		slotNoise: make([]float64, m),
		tot: Totals{
			Rates: make([]float64, cfg.Graph.NumSources()),
			Ops:   make([]OpTotals, m),
		},
	}
	e.buildPlan()
	e.Reset()
	return e, nil
}

// Reset returns the engine to the state New leaves it in: empty
// buffers and totals, zero drops, no pause, every operator at one
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
	e.ClearTotals()
}

// ClearTotals empties the running totals, as BeginSlot does, without
// redrawing the slot noise.
func (e *Engine) ClearTotals() {
	t := &e.tot
	t.Active, t.Paused, t.Sink, t.Latency = 0, 0, 0, 0
	clear(t.Rates)
	clear(t.Ops)
}

// Totals returns the running totals. They are engine state, read-only
// and only valid until the next Tick, ClearTotals, BeginSlot or Reset.
func (e *Engine) Totals() *Totals { return &e.tot }

// buildPlan materializes the flattened per-tick plan from the graph's
// dense edge index: one pass at construction so Tick, the operator steps
// and addToEdge run on arrays with no map lookups or adjacency copies.
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
	// Sources are pushed separately and sinks absorb after the operators,
	// so the tick walks the graph's topological order over operators only.
	for _, id := range g.TopoOrder() {
		switch g.KindOf(id) {
		case dag.Operator:
			step := tickStep{
				op:    int32(g.OperatorIndex(id)),
				preds: g.PredEdgeIDs(id),
				succs: g.SuccEdgeIDs(id),
			}
			if len(step.succs) == 1 && e.edges[step.succs[0]].linear {
				out := &e.edges[step.succs[0]]
				step.linear, step.in, step.out = true, step.preds[0], step.succs[0]
				step.head, step.k = out.toOp, out.k
			}
			e.steps = append(e.steps, step)
		case dag.Sink:
			e.sinkEdges = append(e.sinkEdges, g.PredEdgeIDs(id)...)
		}
	}
	e.opPreds = make([][]int32, g.NumOperators())
	for _, id := range g.Operators() {
		e.opPreds[g.OperatorIndex(id)] = g.PredEdgeIDs(id)
	}
}

// SetTasks applies a new parallelism vector (dense operator index order),
// keeping the per-pod CPU allocations. It does not pause the engine; the
// Flink layer calls Pause separately to model the savepoint
// stop-and-resume.
func (e *Engine) SetTasks(tasks []int) error { return e.SetAllocation(tasks, e.cpu) }

// SetAllocation applies a parallelism vector and per-pod CPU allocations
// (millicores), both in dense operator index order. Only models
// implementing ResourceAware react to the CPU; others keep their
// task-count capacity. It re-evaluates only the operators whose task
// count or CPU changed: models are pure (see CapacityModel), so the
// other operators' cached capacities stay exact.
func (e *Engine) SetAllocation(tasks, cpuMilli []int) error {
	if len(tasks) != len(e.tasks) {
		return fmt.Errorf("streamsim: got %d task counts, want %d", len(tasks), len(e.tasks))
	}
	if len(cpuMilli) != len(e.cpu) {
		return fmt.Errorf("streamsim: got %d CPU allocations, want %d", len(cpuMilli), len(e.cpu))
	}
	for i, n := range tasks {
		if n < 0 {
			return fmt.Errorf("streamsim: negative task count %d for operator %d", n, i)
		}
		if c := cpuMilli[i]; c < 0 {
			return fmt.Errorf("streamsim: negative CPU %d for operator %d", c, i)
		}
	}
	changed := false
	for i, n := range tasks {
		if n == e.tasks[i] && cpuMilli[i] == e.cpu[i] {
			continue
		}
		e.tasks[i], e.cpu[i] = n, cpuMilli[i]
		e.caps[i] = e.capacityOf(i)
		changed = true
	}
	if changed {
		e.refreshY()
	}
	return nil
}

// TasksView returns the current parallelism vector without copying. The
// slice aliases Engine state: it is read-only and only valid until the
// next SetTasks or SetAllocation, the same aliasing contract as Totals. Callers on
// the controller loop use it to avoid a per-round allocation; anything
// that retains the values must copy them (or call Tasks).
func (e *Engine) TasksView() []int { return e.tasks }

// CPUView returns the per-pod CPU vector without copying, under the same
// read-only aliasing contract as TasksView (valid until the next
// SetAllocation).
func (e *Engine) CPUView() []int { return e.cpu }

// refreshCapacity re-evaluates every operator's capacity into caps. The
// allocation changes at most once per slot while Tick reads the capacity
// every second, and models are pure (see CapacityModel), so the cache is
// exact; SetAllocation keeps it so operator by operator.
func (e *Engine) refreshCapacity() {
	for i := range e.caps {
		e.caps[i] = e.capacityOf(i)
	}
	e.refreshY()
}

// refreshY recomputes every operator's y = caps·slotNoise and its
// out-edges' α·y, the products the operator steps would otherwise form
// every second. Each is the same float expression the steps used, so the
// cached values are bit-identical; callers run it whenever caps or
// slotNoise change.
func (e *Engine) refreshY() {
	for i := range e.steps {
		step := &e.steps[i]
		step.y = e.caps[step.op] * e.slotNoise[step.op]
		for _, ei := range step.succs {
			e.edges[ei].alphaY = e.edges[ei].alpha * step.y
		}
		if step.linear {
			step.alphaY = e.edges[step.out].alphaY
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

// BeginSlot empties the totals and redraws the per-slot capacity noise.
// Call once per decision slot (the cloud-noise level varies
// slot-to-slot, not tick-to-tick).
func (e *Engine) BeginSlot() {
	e.ClearTotals()
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

// BufferedTotal returns the backlog summed over all edges: operator
// in-edges with the operators in topological order, then sink in-edges,
// a fixed order so the float sum is identical across runs.
func (e *Engine) BufferedTotal() float64 {
	var s float64
	for i := range e.steps {
		for _, ei := range e.steps[i].preds {
			s += e.edgeBuf[ei]
		}
	}
	for _, ei := range e.sinkEdges {
		s += e.edgeBuf[ei]
	}
	return s
}

// Tick advances the simulation by one second with the given offered
// source rates (tuples/s per dense source index) and adds the tick to
// the totals. A tick that returns an error changes nothing.
func (e *Engine) Tick(rates []float64) error {
	if len(rates) != e.g.NumSources() {
		//lint:allow hotpath cold validation guard: a rate-count mismatch is a caller bug, never hit in steady state
		return fmt.Errorf("streamsim: got %d rates, want %d sources", len(rates), e.g.NumSources())
	}
	for si, rate := range rates {
		if rate < 0 || math.IsNaN(rate) {
			//lint:allow hotpath cold validation guard: invalid rates abort the run, never hit in steady state
			return fmt.Errorf("streamsim: invalid rate %v for source %d", rate, si)
		}
	}
	t := &e.tot
	// Sources always emit: backlog accumulates during pauses.
	for si, rate := range rates {
		t.Rates[si] += rate
		for _, ei := range e.srcEdges[si] {
			e.addToEdge(ei, e.edges[ei].alpha*rate)
		}
	}
	if e.pause == 0 {
		e.walk()
		return nil
	}

	e.pause--
	t.Paused++
	// Arrivals still count; nothing drains, so the latency estimate
	// saturates.
	var lat float64
	for i := range t.Ops {
		o := &t.Ops[i]
		o.Arrived += o.arrived
		o.arrived = 0
		o.Backlog = e.opBacklog(i)
		if o.Backlog > 0 {
			lat = MaxLatencySec
		}
	}
	t.Latency += lat
	return nil
}

// walk runs an active tick after the sources have emitted: every
// operator in topological order, each after all its arrivals, then the
// sinks, then the latency estimate. A sink's in-edges are written only
// by their tail, which comes before the sink in topological order, so
// absorbing every sink after the walk reads the values the sink would
// have read in its place.
//
// A linear step is tickOperator for one input edge and one one-input
// Linear output edge (every operator of the Yahoo chain), with the same
// float expressions and no scratch slices or loops. Its edge backlogs
// are never −0, so q and take are bit for bit the general loop's
// one-term backlog and consumed sums from zero, and it skips the
// division α·y/d exactly: when α·y ≥ d the quotient rounds to at least 1
// and cannot lower φ.
func (e *Engine) walk() {
	t := &e.tot
	t.Active++
	ops, buf := t.Ops, e.edgeBuf
	maxBuf := e.cfg.MaxBufferPerEdge
	rng, sigma := e.cfg.RNG, e.cfg.UtilNoiseSigma
	for i := range e.steps {
		s := &e.steps[i]
		o := &ops[s.op]
		o.Arrived += o.arrived
		o.arrived = 0
		if !s.linear {
			e.tickOperator(s, o)
			continue
		}
		q := buf[s.in]
		d := s.k * q // a −0 demand stalls exactly like the general loop's +0
		if s.y <= 0 || !(d > 0) {
			o.Backlog, o.consumed = q, 0
			continue
		}
		phi := 1.0
		if s.alphaY < d {
			phi = s.alphaY / d
		}
		var emitted float64
		if out := phi * d; out > 0 {
			emitted = out
			if s.head >= 0 {
				ops[s.head].arrived += out
			}
			next := buf[s.out] + out
			if maxBuf > 0 && next > maxBuf {
				e.dropped += next - maxBuf
				next = maxBuf
			}
			buf[s.out] = next
		}
		take := phi * q
		buf[s.in] = q - take
		o.Backlog, o.consumed = q-take, take
		o.Consumed += take
		o.Emitted += emitted
		var noise float64
		if sigma > 0 {
			noise = rng.Normal(0, sigma)
		}
		o.Util += cpuReading(emitted, s.y, noise)
	}

	var sink float64
	for _, ei := range e.sinkEdges {
		sink += buf[ei]
		buf[ei] = 0
	}
	t.Sink += sink
	var lat float64
	for i := range ops {
		o := &ops[i]
		switch {
		case o.Backlog <= 0:
			// no queueing delay at this operator
		case o.consumed > 0:
			lat += o.Backlog / o.consumed
		default:
			lat = MaxLatencySec
		}
		lat = min(lat, MaxLatencySec)
	}
	t.Latency += lat
}

// tickOperator drains one operator's input edges by the feasible
// uniform fraction φ of its demands, for any arity and throughput
// functions, and records the drain in o. An operator with no capacity or
// no demand drains nothing: its zero consumption, emission and
// utilization are not added, which is exact because those sums start at
// +0 and only grow.
func (e *Engine) tickOperator(step *tickStep, o *OpTotals) {
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
	o.Backlog, o.consumed = backlog, 0
	if y <= 0 {
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
		e.addToEdge(ei, out)
	}
	var consumed float64
	for k, ei := range preds {
		take := phi * q[k]
		e.edgeBuf[ei] = q[k] - take
		consumed += take
	}
	o.Backlog, o.consumed = backlog-consumed, consumed
	o.Consumed += consumed
	o.Emitted += emitted
	var noise float64
	if e.cfg.UtilNoiseSigma > 0 {
		noise = e.cfg.RNG.Normal(0, e.cfg.UtilNoiseSigma)
	}
	o.Util += cpuReading(emitted, y, noise)
}

// cpuReading is an operator's CPU reading for a tick in which it
// emitted emitted tuples at effective capacity y > 0: the emitted share
// of y, plus the reading noise, clamped to (0, 1] (a running JVM never
// reports exactly zero CPU). The division is skipped exactly when the
// share would clamp to 1, and min/max give what two ifs would, NaN
// included.
func cpuReading(emitted, y, noise float64) float64 {
	util := 1.0
	if emitted < y {
		util = emitted / y
	}
	return min(max(util+noise, 1e-4), 1)
}

// addToEdge appends flow to an edge buffer, enforcing the cap and counting
// arrivals for the destination operator.
func (e *Engine) addToEdge(ei int32, amount float64) {
	if amount <= 0 {
		return
	}
	if oi := e.edges[ei].toOp; oi >= 0 {
		e.tot.Ops[oi].arrived += amount
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
