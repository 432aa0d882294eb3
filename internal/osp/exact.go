package osp

import (
	"math"

	"dragster/internal/dag"
	"dragster/internal/mathx"
)

// exactSolver solves Eq. 14 exactly on a pure graph (dag.Graph.Pure).
// There every operator out-edge carries f_j = min(α_j·y_i, k_j·e_i), the
// smaller of its capacity share and a linear demand of the operator's
// inputs e_i, so L(y, λ) − w·Σy is piecewise linear in y. It is not
// concave: the −λ·demand(y) term is convex. The solve is branch and bound
// over the per-edge min, on the linear program in (y, f) that relaxes each
// f_j = min(a, b) to f_j ≤ a, f_j ≤ b:
//
//	maximize  Σ_j c_j·f_j + Σ_i (λ_i − w)·y_i
//	s.t.      f_j ≤ α_j·y_tail(j),  f_j ≤ k_j·e_tail(j)(f),  y_i ≤ YMax,
//	          y, f ≥ 0,
//
// where c_j is 1 on an edge into a sink, minus λ_head times the demand one
// unit of f_j adds at its head. Every y with its true flows is feasible,
// so a node's LP optimum bounds the objective over its region from above.
// Capacities the LP returns, fed through the forward sweep, give a true
// value no lower than the LP's wherever each f_j meets one of its bounds;
// then the node is solved. Otherwise the first edge in plan order below
// both bounds is branched on: f_j ≥ α_j·y (the capacity binds) or
// f_j ≥ k_j·e (the demand binds), capacity first, depth first. A node
// whose bound does not beat the incumbent by more than tol is pruned, and
// the incumbent moves only on such a gain, so among maximizers the solve
// returns the first the search meets. The LP pivots by Bland's rule.
//
// On the workload chains the root LP is usually already true-feasible
// (an edge can sit below both bounds only where λ_i > w keeps y_i up while
// a throttled flow is worth more downstream), so one LP and one forward
// sweep replace the iterative solve's innerIters sweeps.
type exactSolver struct {
	m      int       // operators: LP variables 0..m−1 are y
	edges  []lpEdge  // operator out-edges in plan order: LP variables m+j are f_j
	consts []lpConst // the source edges, which add constants
	lp     simplex

	branches []lpBranch
	x        []float64 // the last LP's solution
	y        []float64 // its capacities
	best     []float64 // the incumbent
	bestL    float64
}

// lpEdge is one operator out-edge of the program.
type lpEdge struct {
	tail  int      // tail operator index
	alpha float64  // α_j
	in    []lpTerm // k_j over the tail's operator in-edges: (edge j', k)
	src   []lpTerm // k_j·α over the tail's source in-edges: (source, k·α)
	head  int      // head operator index, −1 for a sink
	headK float64  // demand one unit of f_j adds at its head
}

type lpTerm struct {
	idx int
	k   float64
}

// lpConst is a source edge's constant share of the objective: k·rate of
// throughput into a sink (head −1, k = α), or k·rate of demand at
// operator head (k = α times the demand one unit of that input adds).
type lpConst struct {
	source, head int
	k            float64
}

// lpBranch fixes which bound edge j meets: its capacity or its demand.
type lpBranch struct {
	edge     int
	capacity bool
}

// newExactSolver compiles the program's structure from a pure graph.
func newExactSolver(g *dag.Graph) *exactSolver {
	m := g.NumOperators()
	s := &exactSolver{m: m, y: make([]float64, m), best: make([]float64, m)}
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
			s.edges = append(s.edges, lpEdge{tail: g.OperatorIndex(id), alpha: g.AlphaByID(ei), head: -1})
		}
	}
	for _, id := range g.TopoOrder() {
		preds := g.PredEdgeIDs(id)
		// kSum[p] is the demand one unit on in-edge p adds at id.
		kSum := make([]float64, len(preds))
		if g.KindOf(id) == dag.Operator {
			for _, ei := range g.SuccEdgeIDs(id) {
				k := g.HByID(ei).(dag.Linear).K
				j := &s.edges[fIdx[ei]]
				for p, pe := range preds {
					kSum[p] += k[p]
					if from := g.EdgeByID(pe).From; g.KindOf(from) == dag.Source {
						j.src = append(j.src, lpTerm{srcIdx[from], k[p] * g.AlphaByID(pe)})
					} else {
						j.in = append(j.in, lpTerm{fIdx[pe], k[p]})
					}
				}
			}
		}
		head := g.OperatorIndex(id) // −1 for a sink
		for p, pe := range preds {
			k := 1.0
			if head >= 0 {
				k = kSum[p]
			}
			if from := g.EdgeByID(pe).From; g.KindOf(from) == dag.Source {
				s.consts = append(s.consts, lpConst{srcIdx[from], head, g.AlphaByID(pe) * k})
			} else {
				j := &s.edges[fIdx[pe]]
				j.head, j.headK = head, k
			}
		}
	}
	s.x = make([]float64, m+len(s.edges))
	return s
}

// solve returns argmax_y L(y, λ) − w·Σy over [0, YMax]^M in a new slice.
func (s *exactSolver) solve(o *Optimizer, rates []float64) ([]float64, error) {
	s.branches = s.branches[:0]
	s.bestL = math.Inf(-1)
	if err := s.node(o, rates); err != nil {
		return nil, err
	}
	return append([]float64(nil), s.best...), nil
}

// node solves the LP of the current branches and recurses on the first
// edge its solution leaves below both bounds.
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
	j := s.slackEdge(rates, yMax)
	if j < 0 {
		return nil
	}
	if err := s.branch(o, rates, lpBranch{j, true}); err != nil {
		return err
	}
	return s.branch(o, rates, lpBranch{j, false})
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
// objective's units.
func (s *exactSolver) solveLP(lambda, rates []float64, yMax float64) (bound float64, feasible bool, err error) {
	m, e := s.m, len(s.edges)
	s.lp.reset(2*e+m+len(s.branches), m+e)
	for j := range s.edges {
		ed := &s.edges[j]
		// f_j − α_j·y_tail ≤ 0
		row := s.lp.row(j)
		row[m+j], row[ed.tail] = 1, -ed.alpha
		// f_j − k_j·e(f) ≤ k_j·e(sources)
		row = s.lp.row(e + j)
		row[m+j] = 1
		for _, t := range ed.in {
			row[m+t.idx] -= t.k
		}
		s.lp.setRHS(e+j, s.srcDemand(j, rates)/yMax)
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
		r := 2*e + m + b
		ed := &s.edges[br.edge]
		row := s.lp.row(r)
		row[m+br.edge] = -1
		if br.capacity {
			// α_j·y_tail − f_j ≤ 0
			row[ed.tail] += ed.alpha
			continue
		}
		// k_j·e(f) − f_j ≤ −k_j·e(sources)
		for _, t := range ed.in {
			row[m+t.idx] += t.k
		}
		s.lp.setRHS(r, -s.srcDemand(br.edge, rates)/yMax)
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

// srcDemand is the part of edge j's demand its tail's sources feed.
func (s *exactSolver) srcDemand(j int, rates []float64) float64 {
	var d float64
	for _, t := range s.edges[j].src {
		d += t.k * rates[t.idx]
	}
	return d
}

// slackEdge returns the first edge in plan order whose LP flow sits below
// both its capacity share and its demand, or −1 when none does.
func (s *exactSolver) slackEdge(rates []float64, yMax float64) int {
	for j := range s.edges {
		ed := &s.edges[j]
		want := s.srcDemand(j, rates) / yMax
		for _, t := range ed.in {
			want += t.k * s.x[s.m+t.idx]
		}
		if s.x[s.m+j] < math.Min(ed.alpha*s.x[ed.tail], want)-simplexEps {
			return j
		}
	}
	return -1
}
