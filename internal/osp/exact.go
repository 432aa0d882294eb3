package osp

import (
	"math"

	"dragster/internal/dag"
	"dragster/internal/mathx"
)

// exactSolver solves Eq. 14 exactly on a piecewise-linear graph
// (dag.Graph.PiecewiseLinear). There every operator out-edge carries
// f_j = min(α_j·y_i, h_j(e_i)), the smaller of its capacity share and its
// demand h_j of the operator's inputs e_i. On a Linear edge (and on a
// LearnedLinear one, at the k it holds at solve time) the demand is linear,
// k_j·e; on a MinRate edge it is the smallest of its per-input terms,
// d_j = min_p k_jp·e_p (Eq. 2b). So L(y, λ) − w·Σy is piecewise linear in
// y. It is not concave: the −λ·demand(y) term is convex. The solve is
// branch and bound over the mins, on the linear program in (y, f, d) that
// relaxes each v = min(a, b, …) to v ≤ a, v ≤ b, …:
//
//	maximize  Σ_j c_j·f_j − Σ_{MinRate j} λ_tail(j)·d_j + Σ_i (λ_i − w)·y_i
//	s.t.      f_j ≤ α_j·y_tail(j),
//	          f_j ≤ k_j·e_tail(j)(f)  (Linear),  f_j ≤ d_j  (MinRate),
//	          d_j ≤ k_jp·e_p(f) for every input p  (MinRate),
//	          y_i ≤ YMax,  y, f, d ≥ 0,
//
// where c_j is 1 on an edge into a sink, minus λ_head times the demand one
// unit of f_j adds through its head's linear out-edges. Every y with its
// true flows and demands is feasible, so a node's LP optimum bounds the
// objective over its region from above. That holds for a MinRate demand
// whose binding input is not yet fixed too: there the LP may lower d_j,
// priced at −λ, to f_j, but never below, and the true d_j is feasible.
// Capacities the LP returns, fed through the forward sweep, give a true
// value no lower than the LP's wherever each min meets one of its bounds;
// then the node is solved. Otherwise the first min in plan order below all
// its bounds is branched on, depth first: a MinRate edge's demand before
// its flow, an input p by fixing d_j ≥ k_jp·e_p in input order, a flow by
// fixing f_j ≥ α_j·y (its capacity binds) and then f_j at or above its
// demand. A node whose bound does not beat the incumbent by more than tol
// is pruned, and the incumbent moves only on such a gain, so among
// maximizers the solve returns the first the search meets. The LP pivots
// by Bland's rule.
//
// On the workload graphs the root LP is usually already true-feasible
// (an edge can sit below both bounds only where λ_i > w keeps y_i up while
// a throttled flow is worth more downstream), so one LP and one forward
// sweep replace the iterative solve's innerIters sweeps.
type exactSolver struct {
	m      int       // operators: LP variables 0..m−1 are y
	edges  []lpEdge  // operator out-edges in plan order: LP variables m+j are f_j
	linOut [][]int   // operator index -> its linear out-edges, successor order
	consts []lpConst // the source edges into sinks and linear demands
	nd     int       // MinRate edges: LP variables m+len(edges)+0..nd−1 are their d_j
	inRows int       // their input rows, one per input
	lp     simplex

	branches []lpBranch
	x        []float64 // the last LP's solution
	y        []float64 // its capacities
	best     []float64 // the incumbent
	bestL    float64
}

// lpEdge is one operator out-edge of the program.
type lpEdge struct {
	tail    int                // tail operator index
	alpha   float64            // α_j
	k       []float64          // h_j's rates over the tail's inputs
	learner *dag.LearnedLinear // a LearnedLinear edge's h, whose k moves between solves
	in      []lpInput          // the tail's in-edges, predecessor order
	head    int                // head operator index, −1 for a sink
	headPos int                // the edge's position among its head's inputs
	headK   float64            // demand one unit of f_j adds at its head
	dem     int                // LP variable of a MinRate edge's d_j, −1 on a linear edge
	inRow   int                // a MinRate edge's first input row, counted from the first
}

// lpInput is one input of an edge's tail: an operator in-edge's flow, or a
// source edge's constant α·rate.
type lpInput struct {
	f      int     // f index of an operator in-edge, −1 for a source edge
	source int     // source index of a source edge
	alpha  float64 // the source edge's α
}

// lpConst is a source edge's constant share of the objective: k·rate of
// throughput into a sink (head −1, k = α), or k·rate of linear demand at
// operator head (k = α times the demand one unit of that input adds).
type lpConst struct {
	source, head, pos int
	alpha, k          float64
}

// The bounds an lpBranch can fix besides a MinRate demand's input p ≥ 0.
const (
	capacityBound = -1 // f_j meets α_j·y
	demandBound   = -2 // f_j meets its demand
)

// lpBranch fixes which bound of one min binds: for edge j's flow its
// capacity or its demand; for a MinRate edge's demand, input p.
type lpBranch struct {
	edge  int
	bound int
}

// newExactSolver compiles the program's structure from a piecewise-linear
// graph.
func newExactSolver(g *dag.Graph) *exactSolver {
	m := g.NumOperators()
	s := &exactSolver{m: m, y: make([]float64, m), best: make([]float64, m), linOut: make([][]int, m)}
	fIdx := make([]int, g.NumEdges()) // edge ID -> f index, −1 for a source edge
	srcIdx := make(map[dag.NodeID]int, g.NumSources())
	for i, id := range g.Sources() {
		srcIdx[id] = i
	}
	for i := range fIdx {
		fIdx[i] = -1
	}
	for _, id := range g.TopoOrder() {
		if g.KindOf(id) != dag.Operator {
			continue
		}
		for _, ei := range g.SuccEdgeIDs(id) {
			fIdx[ei] = len(s.edges)
			s.edges = append(s.edges, lpEdge{tail: g.OperatorIndex(id), alpha: g.AlphaByID(ei), head: -1, dem: -1})
		}
	}
	for _, id := range g.TopoOrder() {
		preds := g.PredEdgeIDs(id)
		var in []lpInput
		for _, pe := range preds {
			if from := g.EdgeByID(pe).From; g.KindOf(from) == dag.Source {
				in = append(in, lpInput{f: -1, source: srcIdx[from], alpha: g.AlphaByID(pe)})
			} else {
				in = append(in, lpInput{f: fIdx[pe]})
			}
		}
		head := g.OperatorIndex(id) // −1 for a sink
		if head >= 0 {
			for _, ei := range g.SuccEdgeIDs(id) {
				j := fIdx[ei]
				ed := &s.edges[j]
				ed.in = in
				switch h := g.HByID(ei).(type) {
				case dag.Linear:
					ed.k = h.K
				case *dag.LearnedLinear:
					ed.k, ed.learner = []float64{h.K()}, h
				case dag.MinRate:
					ed.k = h.K
					ed.dem, ed.inRow = s.nd, s.inRows
					s.nd++
					s.inRows += len(in)
					continue
				default:
					panic("osp: exact solve of a graph that is not piecewise linear")
				}
				s.linOut[head] = append(s.linOut[head], j)
			}
		}
		for p, inp := range in {
			if inp.f < 0 {
				s.consts = append(s.consts, lpConst{source: inp.source, head: head, pos: p, alpha: inp.alpha})
			} else {
				s.edges[inp.f].head, s.edges[inp.f].headPos = head, p
			}
		}
	}
	for j := range s.edges {
		if ed := &s.edges[j]; ed.dem >= 0 {
			ed.dem += m + len(s.edges)
		}
	}
	s.x = make([]float64, m+len(s.edges)+s.nd)
	s.weighDemands()
	return s
}

// weighDemands sets every headK and const k from the edges' current rates.
func (s *exactSolver) weighDemands() {
	for j := range s.edges {
		if ed := &s.edges[j]; ed.head >= 0 {
			ed.headK = s.linearDemand(ed.head, ed.headPos)
		}
	}
	for i := range s.consts {
		c := &s.consts[i]
		k := 1.0
		if c.head >= 0 {
			k = s.linearDemand(c.head, c.pos)
		}
		c.k = c.alpha * k
	}
}

// linearDemand is the demand one unit on input p adds at operator i
// through its linear out-edges.
func (s *exactSolver) linearDemand(i, p int) float64 {
	var d float64
	for _, j := range s.linOut[i] {
		d += s.edges[j].k[p]
	}
	return d
}

// solve returns argmax_y L(y, λ) − w·Σy over [0, YMax]^M. The slice is
// the solver's incumbent: read-only and valid until the next solve.
func (s *exactSolver) solve(o *Optimizer, rates []float64) ([]float64, error) {
	moved := false
	for j := range s.edges {
		if l := s.edges[j].learner; l != nil {
			if k := l.K(); k != s.edges[j].k[0] {
				s.edges[j].k[0], moved = k, true
			}
		}
	}
	if moved {
		s.weighDemands()
	}
	s.branches = s.branches[:0]
	s.bestL = math.Inf(-1)
	if err := s.node(o, rates); err != nil {
		return nil, err
	}
	return s.best, nil
}

// node solves the LP of the current branches and recurses on the first
// min its solution leaves below every bound.
func (s *exactSolver) node(o *Optimizer, rates []float64) error {
	yMax := o.cfg.YMax
	tol := 1e-9 * yMax
	bound, feasible, err := s.solveLP(o.lambda, rates, yMax)
	if err != nil || !feasible || bound <= s.bestL+tol {
		return err
	}
	s.lp.primal(s.x)
	for i := range s.y {
		s.y[i] = mathx.Clamp(s.x[i]*yMax, 0, yMax)
	}
	l, err := o.regularizedLagrangian(rates, s.y)
	if err != nil {
		return err
	}
	if l > s.bestL+tol {
		s.bestL = l
		copy(s.best, s.y)
	}
	j, demand := s.slack(rates, yMax)
	if j < 0 {
		return nil
	}
	if demand {
		for p := range s.edges[j].in {
			if err := s.branch(o, rates, lpBranch{j, p}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.branch(o, rates, lpBranch{j, capacityBound}); err != nil {
		return err
	}
	return s.branch(o, rates, lpBranch{j, demandBound})
}

// branch solves the subtree below the current branches plus br.
func (s *exactSolver) branch(o *Optimizer, rates []float64, br lpBranch) error {
	s.branches = append(s.branches, br)
	err := s.node(o, rates)
	s.branches = s.branches[:len(s.branches)-1]
	return err
}

// solveLP fills and solves the program, scaled by 1/YMax so that its
// coefficients and solution are O(1), and returns its optimum in the
// objective's units. Rows: the e capacity rows, the e demand rows, the m
// box rows, the MinRate input rows, then one per branch.
func (s *exactSolver) solveLP(lambda, rates []float64, yMax float64) (bound float64, feasible bool, err error) {
	m, e := s.m, len(s.edges)
	inRow0 := 2*e + m
	s.lp.reset(inRow0+s.inRows+len(s.branches), m+e+s.nd)
	for j := range s.edges {
		ed := &s.edges[j]
		// f_j − α_j·y_tail ≤ 0
		row := s.lp.row(j)
		row[m+j], row[ed.tail] = 1, -ed.alpha
		row = s.lp.row(e + j)
		row[m+j] = 1
		if ed.dem >= 0 {
			// f_j − d_j ≤ 0, and d_j − k_jp·e_p ≤ 0 for every input p
			row[ed.dem] = -1
			for p, in := range ed.in {
				r := inRow0 + ed.inRow + p
				dRow := s.lp.row(r)
				dRow[ed.dem] = 1
				if in.f >= 0 {
					dRow[m+in.f] = -ed.k[p]
				} else {
					s.lp.setRHS(r, ed.k[p]*in.alpha*rates[in.source]/yMax)
				}
			}
			s.lp.setObjective(ed.dem, -lambda[ed.tail])
		} else {
			// f_j − k_j·e(f) ≤ k_j·e(sources)
			for p, in := range ed.in {
				if in.f >= 0 {
					row[m+in.f] -= ed.k[p]
				}
			}
			s.lp.setRHS(e+j, s.srcDemand(j, rates)/yMax)
		}
		c := 1.0
		if ed.head >= 0 {
			c = -lambda[ed.head] * ed.headK
		}
		s.lp.setObjective(m+j, c)
	}
	for i := 0; i < m; i++ {
		s.lp.row(2*e + i)[i] = 1
		s.lp.setRHS(2*e+i, 1)
		s.lp.setObjective(i, lambda[i]-economyWeight)
	}
	for b, br := range s.branches {
		r := inRow0 + s.inRows + b
		ed := &s.edges[br.edge]
		row := s.lp.row(r)
		switch {
		case br.bound == capacityBound:
			// α_j·y_tail − f_j ≤ 0
			row[m+br.edge] = -1
			row[ed.tail] += ed.alpha
		case br.bound == demandBound && ed.dem >= 0:
			// d_j − f_j ≤ 0
			row[m+br.edge] = -1
			row[ed.dem] = 1
		case br.bound == demandBound:
			// k_j·e(f) − f_j ≤ −k_j·e(sources)
			row[m+br.edge] = -1
			for p, in := range ed.in {
				if in.f >= 0 {
					row[m+in.f] += ed.k[p]
				}
			}
			s.lp.setRHS(r, -s.srcDemand(br.edge, rates)/yMax)
		default:
			// k_jp·e_p − d_j ≤ 0
			row[ed.dem] = -1
			if in := ed.in[br.bound]; in.f >= 0 {
				row[m+in.f] = ed.k[br.bound]
			} else {
				s.lp.setRHS(r, -ed.k[br.bound]*in.alpha*rates[in.source]/yMax)
			}
		}
	}
	if feasible, err = s.lp.solve(); err != nil || !feasible {
		return 0, feasible, err
	}
	bound = s.lp.value() * yMax
	for _, c := range s.consts {
		if c.head < 0 {
			bound += c.k * rates[c.source]
		} else {
			bound -= lambda[c.head] * c.k * rates[c.source]
		}
	}
	return bound, true, nil
}

// srcDemand is the part of linear edge j's demand its tail's sources feed.
func (s *exactSolver) srcDemand(j int, rates []float64) float64 {
	ed := &s.edges[j]
	var d float64
	for p, in := range ed.in {
		if in.f < 0 {
			d += ed.k[p] * in.alpha * rates[in.source]
		}
	}
	return d
}

// slack returns the first edge in plan order with a min its LP solution
// leaves below every bound, and whether that is a MinRate edge's demand
// rather than its flow; −1 when there is none.
func (s *exactSolver) slack(rates []float64, yMax float64) (edge int, demand bool) {
	for j := range s.edges {
		ed := &s.edges[j]
		var want float64
		if ed.dem >= 0 {
			want = s.x[ed.dem]
			least := math.Inf(1)
			for p, in := range ed.in {
				if in.f >= 0 {
					least = math.Min(least, ed.k[p]*s.x[s.m+in.f])
				} else {
					least = math.Min(least, ed.k[p]*in.alpha*rates[in.source]/yMax)
				}
			}
			if want < least-simplexEps {
				return j, true
			}
		} else {
			want = s.srcDemand(j, rates) / yMax
			for p, in := range ed.in {
				if in.f >= 0 {
					want += ed.k[p] * s.x[s.m+in.f]
				}
			}
		}
		if s.x[s.m+j] < math.Min(ed.alpha*s.x[ed.tail], want)-simplexEps {
			return j, false
		}
	}
	return -1, false
}
