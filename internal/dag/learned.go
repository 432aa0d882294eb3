package dag

import (
	"fmt"
	"math"
	"sync"
)

// ThroughputLearner is implemented by throughput functions whose
// parameters are fitted online from observed rates. This is the Theorem 2
// setting of the paper: the user does not know the operator logic, starts
// from a guessed functional form, and "learns its parameters via
// regression in an online manner"; Theorem 2 shows the regret order is
// preserved once the prediction error decays.
type ThroughputLearner interface {
	// ObserveRates feeds one unsaturated steady-state sample: the
	// operator's aggregate input rate and the resulting output rate on
	// this edge. Callers must skip saturated slots (where the output is
	// capacity-truncated rather than h-determined).
	ObserveRates(in, out float64) error
	// PredictionGap reports a relative uncertainty estimate for the
	// current fit in [0, 1] (1 = prior only, → 0 as data accumulates) —
	// the o(1/√T) hand-off condition of Eq. 31 in spirit.
	PredictionGap() float64
}

// LearnedLinear is a single-input linear throughput function h(e) = k·e
// whose selectivity k is estimated online by regularized least squares:
//
//	k̂ = (λ·k₀ + Σ inᵢ·outᵢ) / (λ + Σ inᵢ²)
//
// with k₀ the prior guess and λ a small ridge weight keeping early
// estimates near the prior. It is safe for concurrent use (the graph is
// shared between evaluation and the controller's learning hook).
type LearnedLinear struct {
	mu    sync.RWMutex
	prior float64
	ridge float64
	sxx   float64
	sxy   float64
	n     int
}

// NewLearnedLinear returns a learner with the given prior selectivity
// guess (> 0).
func NewLearnedLinear(prior float64) (*LearnedLinear, error) {
	if prior <= 0 || math.IsNaN(prior) || math.IsInf(prior, 0) {
		return nil, fmt.Errorf("dag: LearnedLinear prior %v must be positive and finite", prior)
	}
	return &LearnedLinear{prior: prior, ridge: 1}, nil
}

// K returns the current selectivity estimate.
func (l *LearnedLinear) K() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.k()
}

func (l *LearnedLinear) k() float64 {
	return (l.ridge*l.prior + l.sxy) / (l.ridge + l.sxx)
}

// Samples returns the number of observations folded in.
func (l *LearnedLinear) Samples() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// ObserveRates implements ThroughputLearner. Inputs are normalized before
// accumulation so the ridge weight is meaningful across workload scales.
func (l *LearnedLinear) ObserveRates(in, out float64) error {
	if in <= 0 || out < 0 || math.IsNaN(in) || math.IsNaN(out) || math.IsInf(in, 0) || math.IsInf(out, 0) {
		return fmt.Errorf("dag: invalid rate sample (in=%v, out=%v)", in, out)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Normalize each sample to unit input so every slot carries equal
	// weight regardless of absolute rate: contributes (1, out/in).
	r := out / in
	l.sxx++
	l.sxy += r
	l.n++
	return nil
}

// PredictionGap implements ThroughputLearner: 1/(1+n), which decays
// faster than the o(1/√T) Theorem 2 requires.
func (l *LearnedLinear) PredictionGap() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return 1 / (1 + float64(l.n))
}

// Eval implements ThroughputFunc.
func (l *LearnedLinear) Eval(in []float64) float64 {
	l.check(len(in))
	return l.K() * in[0]
}

// AddVJP implements ThroughputFunc: ∂h/∂in[0] = k̂.
func (l *LearnedLinear) AddVJP(in []float64, a float64, inAdj []float64) {
	l.check(len(in))
	inAdj[0] += a * l.K()
}

func (l *LearnedLinear) check(n int) {
	if n != 1 {
		panic(fmt.Sprintf("dag: LearnedLinear expects 1 input, got %d", n))
	}
}

// Name implements ThroughputFunc.
func (l *LearnedLinear) Name() string { return "learned-linear" }
