// Package dag models a stream-processing application as a directed acyclic
// graph of sources, operators and a sink (§4.1 of the Dragster paper). It
// provides the throughput functions h_{i,j} of Eq. 2, evaluation of the
// application throughput f_t(y) under capacity truncation (Eq. 4), and its
// gradient ∂f/∂y_i by one hand-derived reverse sweep over the graph — the
// quantity Dragster uses to identify bottleneck operators.
package dag

import (
	"fmt"
	"math"

	"dragster/internal/mathx"
)

// ThroughputFunc is the input→output throughput mapping h_{i,j} of an edge
// (Eq. 3). Implementations must be increasing and concave in each input,
// per the paper's modelling assumption, and must supply both the value and
// its vector-Jacobian product so gradients can flow through the edge.
type ThroughputFunc interface {
	// Eval maps the input throughput vector (ordered like the operator's
	// predecessor list) to the emitted throughput on this edge.
	Eval(inputs []float64) float64
	// AddVJP adds a·∂h/∂inputs[k] into inAdj[k] for every input k, where
	// a is the adjoint of h's output. A kink (min) routes to one attaining
	// argument. inAdj is as long as inputs and must only be added to.
	AddVJP(inputs []float64, a float64, inAdj []float64)
	// Name identifies the functional form for logs and persistence.
	Name() string
}

// Linear is Eq. 2a: h(e) = k · e (inner product with a constant rate
// vector). With a single input it reduces to a selectivity factor.
type Linear struct {
	K []float64
}

// NewLinear validates the rate vector and returns the function. Every
// component must be non-negative to preserve monotonicity.
func NewLinear(k ...float64) (Linear, error) {
	if len(k) == 0 {
		return Linear{}, fmt.Errorf("dag: Linear needs at least one rate")
	}
	for _, v := range k {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Linear{}, fmt.Errorf("dag: Linear rate %v is not a non-negative finite number", v)
		}
	}
	return Linear{K: append([]float64(nil), k...)}, nil
}

// Eval implements ThroughputFunc.
func (l Linear) Eval(in []float64) float64 {
	l.check(len(in))
	return mathx.Dot(l.K, in)
}

// AddVJP implements ThroughputFunc: ∂h/∂in[k] = K[k].
func (l Linear) AddVJP(in []float64, a float64, inAdj []float64) {
	l.check(len(in))
	for k, kk := range l.K {
		inAdj[k] += a * kk
	}
}

// Name implements ThroughputFunc.
func (l Linear) Name() string { return "linear" }

func (l Linear) check(n int) {
	if n != len(l.K) {
		panic(fmt.Sprintf("dag: Linear expects %d inputs, got %d", len(l.K), n))
	}
}

// MinRate is Eq. 2b: h(e) = min(k ∘ e) — the output follows the bottleneck
// predecessor. This is the natural form for join-like operators that need
// one tuple from each input.
type MinRate struct {
	K []float64
}

// NewMinRate validates the weight vector and returns the function.
func NewMinRate(k ...float64) (MinRate, error) {
	if len(k) == 0 {
		return MinRate{}, fmt.Errorf("dag: MinRate needs at least one weight")
	}
	for _, v := range k {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return MinRate{}, fmt.Errorf("dag: MinRate weight %v is not a non-negative finite number", v)
		}
	}
	return MinRate{K: append([]float64(nil), k...)}, nil
}

// Eval implements ThroughputFunc.
func (m MinRate) Eval(in []float64) float64 {
	m.check(len(in))
	out := math.Inf(1)
	for i, v := range in {
		if w := m.K[i] * v; w < out {
			out = w
		}
	}
	return out
}

// AddVJP implements ThroughputFunc: the whole adjoint goes to the first
// input attaining the minimum, the one Eval returns.
func (m MinRate) AddVJP(in []float64, a float64, inAdj []float64) {
	m.check(len(in))
	arg := 0
	for k := 1; k < len(in); k++ {
		if m.K[k]*in[k] < m.K[arg]*in[arg] {
			arg = k
		}
	}
	inAdj[arg] += a * m.K[arg]
}

// Name implements ThroughputFunc.
func (m MinRate) Name() string { return "min-rate" }

func (m MinRate) check(n int) {
	if n != len(m.K) {
		panic(fmt.Sprintf("dag: MinRate expects %d inputs, got %d", len(m.K), n))
	}
}

// Tanh is Eq. 2c: h(e) = k1 · tanh(k · e), a saturating concave mapping a
// user can fit online when the operator logic is unknown.
type Tanh struct {
	K1 float64
	K  []float64
}

// NewTanh validates the parameters and returns the function.
func NewTanh(k1 float64, k ...float64) (Tanh, error) {
	if k1 <= 0 || math.IsNaN(k1) || math.IsInf(k1, 0) {
		return Tanh{}, fmt.Errorf("dag: Tanh amplitude %v must be a positive finite number", k1)
	}
	if len(k) == 0 {
		return Tanh{}, fmt.Errorf("dag: Tanh needs at least one rate")
	}
	for _, v := range k {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Tanh{}, fmt.Errorf("dag: Tanh rate %v is not a non-negative finite number", v)
		}
	}
	return Tanh{K1: k1, K: append([]float64(nil), k...)}, nil
}

// Eval implements ThroughputFunc.
func (t Tanh) Eval(in []float64) float64 {
	t.check(len(in))
	return t.K1 * math.Tanh(mathx.Dot(t.K, in))
}

// AddVJP implements ThroughputFunc: ∂h/∂in[k] = K1·(1 − tanh²(k·e))·K[k].
func (t Tanh) AddVJP(in []float64, a float64, inAdj []float64) {
	t.check(len(in))
	th := math.Tanh(mathx.Dot(t.K, in))
	d := (a * t.K1) * (1 - th*th)
	for k, kk := range t.K {
		inAdj[k] += d * kk
	}
}

// Name implements ThroughputFunc.
func (t Tanh) Name() string { return "tanh" }

func (t Tanh) check(n int) {
	if n != len(t.K) {
		panic(fmt.Sprintf("dag: Tanh expects %d inputs, got %d", len(t.K), n))
	}
}

// Selectivity returns the one-input Linear h(e) = s·e, the most common case
// (a map/filter/flatMap stage emitting s output tuples per input tuple).
// It panics if s is negative or non-finite, since that is always a
// programming error in workload construction.
func Selectivity(s float64) Linear {
	l, err := NewLinear(s)
	if err != nil {
		panic(err)
	}
	return l
}
