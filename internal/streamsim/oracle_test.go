package streamsim

import (
	"fmt"
	"math"

	"dragster/internal/dag"
)

// RefOp is one operator's activity in one reference tick.
type RefOp struct {
	Arrived  float64 // tuples arriving on input edges this tick
	Consumed float64 // input tuples drained from buffers
	Emitted  float64 // output tuples produced
	Buffered float64 // backlog across input edges after the tick
	Util     float64 // reported CPU utilization in [0, 1] (noisy)
}

// RefTick is one reference tick's record.
type RefTick struct {
	SinkThroughput float64
	Paused         bool
	LatencySec     float64
	Ops            []RefOp
}

// RefStep is the reference tick for the fused one: the engine's tick as
// it was when it returned a per-tick record for a separate accumulator
// to sum, instead of adding to its own totals. It runs on the engine's
// plan, buffers, pause and RNG, steps every operator through the
// general loop (never the walk's linear step), absorbs each sink in its
// place in the topological order (not after the operators), and leaves
// the totals alone.
func (e *Engine) RefStep(rates []float64) (RefTick, error) {
	if len(rates) != e.g.NumSources() {
		return RefTick{}, fmt.Errorf("streamsim: got %d rates, want %d sources", len(rates), e.g.NumSources())
	}
	st := RefTick{Ops: make([]RefOp, e.g.NumOperators())}
	for si := range e.srcEdges {
		rate := rates[si]
		if rate < 0 || math.IsNaN(rate) {
			return RefTick{}, fmt.Errorf("streamsim: invalid rate %v for source %d", rate, si)
		}
		for _, ei := range e.srcEdges[si] {
			e.refAddToEdge(ei, e.edges[ei].alpha*rate, &st)
		}
	}
	if e.pause > 0 {
		e.pause--
		st.Paused = true
		for i := range st.Ops {
			st.Ops[i].Buffered = e.opBacklog(i)
			if st.Ops[i].Buffered > 0 {
				st.LatencySec = MaxLatencySec
			}
		}
		return st, nil
	}
	steps := make(map[int]*tickStep, len(e.steps))
	for i := range e.steps {
		steps[int(e.steps[i].op)] = &e.steps[i]
	}
	for _, id := range e.g.TopoOrder() {
		switch e.g.KindOf(id) {
		case dag.Operator:
			e.refTickOperator(steps[e.g.OperatorIndex(id)], &st)
		case dag.Sink:
			for _, ei := range e.g.PredEdgeIDs(id) {
				st.SinkThroughput += e.edgeBuf[ei]
				e.edgeBuf[ei] = 0
			}
		}
	}
	for i := range st.Ops {
		op := &st.Ops[i]
		switch {
		case op.Buffered <= 0:
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

func (e *Engine) refTickOperator(step *tickStep, st *RefTick) {
	preds, succs := step.preds, step.succs
	q := make([]float64, len(preds))
	var backlog float64
	for k, ei := range preds {
		q[k] = e.edgeBuf[ei]
		backlog += q[k]
	}
	y := step.y
	op := &st.Ops[step.op]
	if y <= 0 {
		op.Buffered = backlog
		return
	}
	demands := make([]float64, len(succs))
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
		e.refAddToEdge(ei, out, st)
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
		util = 1e-4
	}
	if util > 1 {
		util = 1
	}
	op.Util = util
}

func (e *Engine) refAddToEdge(ei int32, amount float64, st *RefTick) {
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
