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

// Methods. SaddlePoint solves y_t = argmax_y L_{t−1}(y, λ_{t−1}) to
// (approximate) optimality each slot; GradientDescent takes a single
// η-step from the previous target, trading convergence speed for
// smoothness (the paper evaluates both).
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

// innerIters bounds the projected-gradient inner solve of Eq. 14.
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
	ws     dag.Workspace
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
	}
	for i := range o.yPrev {
		o.yPrev[i] = cfg.YMax / 4 // neutral warm start
	}
	return o, nil
}

// Duals returns a copy of the current multipliers.
func (o *Optimizer) Duals() []float64 { return append([]float64(nil), o.lambda...) }

// Slot returns the number of Step calls so far.
func (o *Optimizer) Slot() int { return o.t }

// Step consumes last slot's observed source rates (which define
// f_{t−1}) and returns the target capacity vector y_t. For SaddlePoint it
// maximizes the Lagrangian by projected gradient ascent (f is concave, so
// this converges); for GradientDescent it takes one η-step (Eq. 16).
func (o *Optimizer) Step(rates []float64) ([]float64, error) {
	if len(rates) != o.g.NumSources() {
		return nil, fmt.Errorf("osp: got %d rates, want %d", len(rates), o.g.NumSources())
	}
	o.t++
	var y []float64
	var err error
	switch o.cfg.Method {
	case SaddlePoint:
		y, err = o.maximizeLagrangian(rates)
	case GradientDescent:
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
		rep, err := o.g.Evaluate(rates, y)
		if err != nil {
			return nil, err
		}
		for i := range y {
			need := rep.Demand[i] * headroomFactor
			if y[i] < need {
				y[i] = math.Min(need, o.cfg.YMax)
			}
		}
	}
	copy(o.yPrev, y)
	return y, nil
}

// maximizeLagrangian solves Eq. 14 by projected gradient ascent over the
// box [0, YMax]^M with diminishing steps.
func (o *Optimizer) maximizeLagrangian(rates []float64) ([]float64, error) {
	y := append([]float64(nil), o.yPrev...)
	best := append([]float64(nil), y...)
	bestL := math.Inf(-1)
	step0 := o.cfg.YMax / 8
	for k := 1; k <= innerIters; k++ {
		l, grad, err := o.regularizedLagrangian(rates, y)
		if err != nil {
			return nil, err
		}
		if l > bestL {
			bestL = l
			copy(best, y)
		}
		gn := mathx.Norm2(grad)
		if gn < 1e-12 {
			break
		}
		step := step0 / math.Sqrt(float64(k))
		for i := range y {
			y[i] = mathx.Clamp(y[i]+step*grad[i]/gn, 0, o.cfg.YMax)
		}
	}
	// Evaluate the final iterate too.
	if l, _, err := o.regularizedLagrangian(rates, y); err == nil && l > bestL {
		copy(best, y)
	}
	return best, nil
}

// regularizedLagrangian returns L(y, λ) − w·Σy and its gradient, the
// economy-regularized inner objective (see economyWeight). The
// gradient aliases the optimizer's workspace until the next call.
func (o *Optimizer) regularizedLagrangian(rates, y []float64) (float64, []float64, error) {
	l, grad, err := o.g.LagrangianGradient(&o.ws, rates, y, o.lambda)
	if err != nil {
		return 0, nil, err
	}
	for i := range grad {
		l -= economyWeight * y[i]
		grad[i] -= economyWeight
	}
	return l, grad, nil
}

// ogdStep is Eq. 16: one normalized gradient step on L_{t−1} from the
// previous target, with step size η = YMax/10. Normalization makes the
// step length η regardless of the local slope, so the tracker moves at
// the same speed scaling down (where only the small economy slope points
// the way) as scaling up.
func (o *Optimizer) ogdStep(rates []float64) ([]float64, error) {
	_, grad, err := o.regularizedLagrangian(rates, o.yPrev)
	if err != nil {
		return nil, err
	}
	gn := mathx.Norm2(grad)
	y := make([]float64, len(o.yPrev))
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

// Bottlenecks returns the operator indices whose target capacity deviates
// from the currently realized capacity estimate by more than tol
// (relative): the operators Algorithm 1 line 4 selects for
// reconfiguration. Both under-provisioned (target above realized) and
// over-provisioned (target below realized) operators qualify — the second
// kind is what lets Dragster scale down into cheaper configurations.
func Bottlenecks(target, realized []float64, tol float64) ([]int, error) {
	if len(target) != len(realized) {
		return nil, fmt.Errorf("osp: target/realized length mismatch %d vs %d", len(target), len(realized))
	}
	if tol < 0 {
		return nil, errors.New("osp: negative tolerance")
	}
	var out []int
	for i := range target {
		scale := math.Max(math.Abs(realized[i]), 1e-9)
		if math.Abs(target[i]-realized[i])/scale > tol {
			out = append(out, i)
		}
	}
	return out, nil
}
