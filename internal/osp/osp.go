// Package osp implements the level-1 optimizer of Dragster: the online
// saddle point algorithm (Eq. 14) and the online gradient descent variant
// (Eq. 16) over operator service capacities, with the dual update of
// Eq. 15 enforcing the long-term buffer constraint. Given last slot's
// offered load it produces the target capacity vector y_t that level 2
// (GP-UCB) then realizes through configurations.
package osp

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/dag"
	"dragster/internal/mathx"
)

// Method selects the level-1 update rule.
type Method int

// Methods. SaddlePoint solves y_t = argmax_y L_{t−1}(y, λ_{t−1}) each
// slot — exactly on a piecewise-linear graph (dag.Graph.PiecewiseLinear),
// by bounded projected ascent otherwise (a Tanh edge); GradientDescent takes a single η-step from the
// previous target, trading convergence speed for smoothness (the paper
// evaluates both).
const (
	SaddlePoint Method = iota
	GradientDescent
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case SaddlePoint:
		return "saddle-point"
	case GradientDescent:
		return "online-gradient-descent"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config tunes the optimizer.
type Config struct {
	// Method selects saddle point (default) or online gradient descent.
	Method Method
	// YMax bounds every target capacity from above (the capacity reachable
	// at the largest configuration; keeps the inner maximization compact).
	// It also normalizes violations in the dual update and sets the OGD
	// step size η = YMax/10.
	YMax float64
}

// gammaScale scales the dual step size γ_t = gammaScale/√t (Theorem 1
// uses γ = 1/√t).
const gammaScale = 0.3

// violationClamp bounds each normalized per-slot dual step to
// [−violationClamp, +violationClamp]. Cold-start slots produce violations
// ~5× larger than the slack available once capacity catches up, so
// without the clamp one starving slot inflates λ for many subsequent
// slots; with it, only *sustained* violations build dual pressure.
// Clipped subgradients keep the Eq. 15 dynamics valid.
const violationClamp = 0.1

// innerIters is the iteration count of the projected-gradient solve of
// Eq. 14 on a graph that is not piecewise linear (a Tanh edge).
const innerIters = 200

// headroomFactor multiplies demand-driven saddle-point targets to keep
// slack above the offered load. Small headroom absorbs cloud noise
// without material cost.
const headroomFactor = 1.05

// economyWeight selects the *minimal* maximizer of the Lagrangian by
// subtracting economyWeight·Σ_i y_i from the inner objective. The
// throughput function plateaus once every operator covers its demand, so
// the argmax of Eq. 14 is a whole region; the paper's behaviour ("adjust
// the capacity to meet the input rate", §6.4) corresponds to its smallest
// element, which is what yields the cost savings when load drops. It must
// stay in [0, 1), small relative to the throughput slope.
const economyWeight = 0.05

// Optimizer tracks the dual state and produces per-slot capacity targets.
// Not safe for concurrent use.
type Optimizer struct {
	g      *dag.Graph
	cfg    Config
	lambda []float64 // dual variables λ_i ≥ 0
	yPrev  []float64 // previous target (OGD state / warm start)
	t      int       // slot counter (starts at 1 on first Step)

	exact *exactSolver // the Eq. 14 solve on a piecewise-linear graph, nil otherwise

	// Scratch reused by every Step.
	ws     dag.Workspace
	rep    dag.FlowReport // the headroom floor's evaluation
	y      []float64      // the iterative solve's iterate
	grad   []float64      // the regularized gradient
	target []float64      // the y_t Step returns
}

// New returns an Optimizer for the application graph.
func New(g *dag.Graph, cfg Config) (*Optimizer, error) {
	if g == nil {
		return nil, errors.New("osp: nil graph")
	}
	if cfg.YMax <= 0 || math.IsNaN(cfg.YMax) || math.IsInf(cfg.YMax, 0) {
		return nil, errors.New("osp: YMax must be positive")
	}
	m := g.NumOperators()
	o := &Optimizer{
		g:      g,
		cfg:    cfg,
		lambda: make([]float64, m),
		yPrev:  make([]float64, m),
		y:      make([]float64, m),
		grad:   make([]float64, m),
		target: make([]float64, m),
	}
	for i := range o.yPrev {
		o.yPrev[i] = cfg.YMax / 4 // neutral warm start
	}
	if g.PiecewiseLinear() {
		o.exact = newExactSolver(g)
	}
	return o, nil
}

// Duals returns the current multipliers without copying. The slice
// aliases the optimizer's state: it is read-only and valid until the
// next ObserveViolations or Step; a caller that keeps the values must
// copy them.
func (o *Optimizer) Duals() []float64 { return o.lambda }

// Step consumes last slot's observed source rates (which define
// f_{t−1}) and returns the target capacity vector y_t. For SaddlePoint it
// maximizes the Lagrangian: exactly on a piecewise-linear graph (see
// exactSolver); otherwise by projected gradient ascent, which returns the
// best of its innerIters iterates — L is not concave in y, since −λ·demand(y) is
// convex, so that is a local answer. For GradientDescent it takes one
// η-step (Eq. 16).
//
// The returned y aliases the optimizer's state, as Duals does: it is
// read-only and valid until the next Step; a caller that keeps the
// targets must copy them.
func (o *Optimizer) Step(rates []float64) ([]float64, error) {
	if len(rates) != o.g.NumSources() {
		return nil, fmt.Errorf("osp: got %d rates, want %d", len(rates), o.g.NumSources())
	}
	o.t++
	var y []float64
	var err error
	switch {
	case o.cfg.Method == SaddlePoint && o.exact != nil:
		if y, err = o.exact.solve(o, rates); err == nil {
			y = append(o.target[:0], y...)
		}
	case o.cfg.Method == SaddlePoint:
		y, err = o.maximizeLagrangian(rates)
	case o.cfg.Method == GradientDescent:
		y, err = o.ogdStep(rates)
	default:
		return nil, fmt.Errorf("osp: unknown method %d", o.cfg.Method)
	}
	if err != nil {
		return nil, err
	}
	// SaddlePoint re-solves to optimality each slot, so it may floor the
	// target at the offered demand plus headroom — Assumption 1 (Slater)
	// guarantees this point is feasible, and it keeps l_i ≤ 0 achievable
	// under noise. The OGD variant deliberately skips the floor: Eq. 16 is
	// a *smooth* tracker and the floor would collapse it into the saddle
	// point solution (§6.2 distinguishes the two trajectories).
	if o.cfg.Method == SaddlePoint {
		if err := o.g.EvaluateInto(&o.rep, rates, y); err != nil {
			return nil, err
		}
		for i := range y {
			need := o.rep.Demand[i] * headroomFactor
			if y[i] < need {
				y[i] = math.Min(need, o.cfg.YMax)
			}
		}
	}
	copy(o.yPrev, y)
	return y, nil
}

// maximizeLagrangian approximates Eq. 14 on a graph that is not piecewise
// linear by projected normalized-gradient ascent over the box [0, YMax]^M
// with diminishing steps, returning the best iterate in Step's target.
func (o *Optimizer) maximizeLagrangian(rates []float64) ([]float64, error) {
	y := o.y
	copy(y, o.yPrev)
	best := o.target
	copy(best, y)
	bestL := math.Inf(-1)
	step0 := o.cfg.YMax / 8
	for k := 1; k <= innerIters; k++ {
		l, grad, gn, err := o.objective(rates, y)
		if err != nil {
			return nil, err
		}
		if l > bestL {
			bestL = l
			copy(best, y)
		}
		if gn < 1e-12 {
			break
		}
		step := step0 / math.Sqrt(float64(k))
		for i := range y {
			y[i] = mathx.Clamp(y[i]+step*grad[i]/gn, 0, o.cfg.YMax)
		}
	}
	// Evaluate the final iterate too.
	if l, err := o.regularizedLagrangian(rates, y); err == nil && l > bestL {
		copy(best, y)
	}
	return best, nil
}

// regularizedLagrangian returns L(y, λ) − w·Σy, the economy-regularized
// inner objective (see economyWeight).
func (o *Optimizer) regularizedLagrangian(rates, y []float64) (float64, error) {
	l, err := o.g.LagrangianForward(&o.ws, rates, y, o.lambda)
	if err != nil {
		return 0, err
	}
	for i := range y {
		l -= economyWeight * y[i]
	}
	return l, nil
}

// objective returns the regularized objective at y, its gradient and the
// gradient's norm. The gradient is valid until the next call.
func (o *Optimizer) objective(rates, y []float64) (l float64, grad []float64, gn float64, err error) {
	if l, err = o.regularizedLagrangian(rates, y); err != nil {
		return 0, nil, 0, err
	}
	grad = o.grad
	for i, d := range o.g.LagrangianReverse(&o.ws, y, o.lambda) {
		grad[i] = d - economyWeight
	}
	return l, grad, mathx.Norm2(grad), nil
}

// ogdStep is Eq. 16: one normalized gradient step on L_{t−1} from the
// previous target, with step size η = YMax/10, into Step's target.
// Normalization makes the step length η regardless of the local slope,
// so the tracker moves at the same speed scaling down (where only the
// small economy slope points the way) as scaling up.
func (o *Optimizer) ogdStep(rates []float64) ([]float64, error) {
	_, grad, gn, err := o.objective(rates, o.yPrev)
	if err != nil {
		return nil, err
	}
	y := o.target
	if gn < 1e-12 {
		copy(y, o.yPrev)
		return y, nil
	}
	eta := o.cfg.YMax / 10
	for i := range y {
		y[i] = mathx.Clamp(o.yPrev[i]+eta*grad[i]/gn, 0, o.cfg.YMax)
	}
	return y, nil
}

// ObserveViolations applies the dual update of Eq. 15,
//
//	λ_i ← max(0, λ_i + γ_t·l_i),
//
// with γ_t = gammaScale/√t, where l_i = demand_i − y_i(x_i(t)) is the
// realized soft-constraint value of slot t (positive when the operator
// could not keep up). Each l_i enters as l_i/YMax, clamped to
// ±violationClamp: dividing by YMax keeps the multipliers O(1) against
// the O(1) throughput gradient they compete with in the Lagrangian — the
// dimensionless form of Eq. 15.
func (o *Optimizer) ObserveViolations(l []float64) error {
	if len(l) != len(o.lambda) {
		return fmt.Errorf("osp: got %d violations, want %d", len(l), len(o.lambda))
	}
	t := o.t
	if t < 1 {
		t = 1
	}
	gamma := gammaScale / math.Sqrt(float64(t))
	for i, li := range l {
		if math.IsNaN(li) || math.IsInf(li, 0) {
			return fmt.Errorf("osp: violation l[%d] = %v invalid", i, li)
		}
		step := mathx.Clamp(li/o.cfg.YMax, -violationClamp, violationClamp)
		o.lambda[i] = math.Max(0, o.lambda[i]+gamma*step)
	}
	return nil
}

// Bottlenecks appends to dst[:0] the operator indices whose target
// capacity deviates from the currently realized capacity estimate by more
// than tol (relative): the operators Algorithm 1 line 4 selects for
// reconfiguration. Both under-provisioned (target above realized) and
// over-provisioned (target below realized) operators qualify — the second
// kind is what lets Dragster scale down into cheaper configurations.
// Passing last round's result as dst reuses its storage.
func Bottlenecks(dst []int, target, realized []float64, tol float64) ([]int, error) {
	if len(target) != len(realized) {
		//lint:allow hotpath validation guard: the controller passes two vectors of its own operator count
		return nil, fmt.Errorf("osp: target/realized length mismatch %d vs %d", len(target), len(realized))
	}
	if tol < 0 {
		return nil, errors.New("osp: negative tolerance")
	}
	out := dst[:0]
	for i := range target {
		scale := math.Max(math.Abs(realized[i]), 1e-9)
		if math.Abs(target[i]-realized[i])/scale > tol {
			out = append(out, i)
		}
	}
	return out, nil
}
