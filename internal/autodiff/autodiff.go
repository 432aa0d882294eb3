// Package autodiff implements a small reverse-mode automatic
// differentiation engine over scalar computation graphs. It stands in for
// the PyTorch autograd dependency of the original Dragster implementation:
// the optimizer tapes the evaluation of the DAG throughput function
// f_t(y) and reads ∂f_t/∂y_i for every operator i in one backward pass,
// which is how bottleneck operators are identified.
//
// The engine supports the operations the throughput functions of the paper
// need — affine arithmetic, tanh (Eq. 2c), and min (Eq. 2b / Eq. 4, with
// the usual subgradient convention of routing gradient to the attaining
// argument).
package autodiff

import (
	"fmt"
	"math"
)

// Tape records a computation graph. Nodes are appended in topological
// order by construction, so the backward pass is a single reverse sweep.
// A Tape is not safe for concurrent use.
type Tape struct {
	nodes []node
}

type node struct {
	value   float64
	parents [2]int     // indices into nodes; -1 when unused
	grads   [2]float64 // local partials w.r.t. the parents
}

// Value is a handle to a node on a Tape.
type Value struct {
	tape *Tape
	idx  int
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Len returns the number of recorded nodes (useful in tests and for
// bounding memory in long-running loops).
func (t *Tape) Len() int { return len(t.nodes) }

// Reset discards all recorded nodes but keeps the backing storage, so a
// per-slot optimizer can reuse one tape allocation across iterations.
// Handles created before Reset must not be used afterwards.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

func (t *Tape) push(v float64, p0, p1 int, g0, g1 float64) Value {
	t.nodes = append(t.nodes, node{value: v, parents: [2]int{p0, p1}, grads: [2]float64{g0, g1}})
	return Value{tape: t, idx: len(t.nodes) - 1}
}

// Const records a constant (zero gradient) node.
func (t *Tape) Const(v float64) Value { return t.push(v, -1, -1, 0, 0) }

// Var records an input variable node. Gradients flow back to it.
func (t *Tape) Var(v float64) Value { return t.push(v, -1, -1, 0, 0) }

// Value returns the numeric value held by the node.
func (v Value) Value() float64 { return v.tape.nodes[v.idx].value }

func (v Value) sameTape(o Value) {
	if v.tape != o.tape {
		panic("autodiff: combining values from different tapes")
	}
}

// Add returns v + o.
func (v Value) Add(o Value) Value {
	v.sameTape(o)
	return v.tape.push(v.Value()+o.Value(), v.idx, o.idx, 1, 1)
}

// Sub returns v − o.
func (v Value) Sub(o Value) Value {
	v.sameTape(o)
	return v.tape.push(v.Value()-o.Value(), v.idx, o.idx, 1, -1)
}

// Mul returns v · o.
func (v Value) Mul(o Value) Value {
	v.sameTape(o)
	return v.tape.push(v.Value()*o.Value(), v.idx, o.idx, o.Value(), v.Value())
}

// Div returns v / o. It panics if o is exactly zero, because a silent
// Inf would poison the optimizer state.
func (v Value) Div(o Value) Value {
	v.sameTape(o)
	ov := o.Value()
	if ov == 0 {
		panic("autodiff: division by zero")
	}
	return v.tape.push(v.Value()/ov, v.idx, o.idx, 1/ov, -v.Value()/(ov*ov))
}

// Neg returns −v.
func (v Value) Neg() Value {
	return v.tape.push(-v.Value(), v.idx, -1, -1, 0)
}

// Scale returns c · v for a plain constant c.
func (v Value) Scale(c float64) Value {
	return v.tape.push(c*v.Value(), v.idx, -1, c, 0)
}

// AddConst returns v + c for a plain constant c.
func (v Value) AddConst(c float64) Value {
	return v.tape.push(v.Value()+c, v.idx, -1, 1, 0)
}

// Tanh returns tanh(v); d/dx tanh = 1 − tanh².
func (v Value) Tanh() Value {
	th := math.Tanh(v.Value())
	return v.tape.push(th, v.idx, -1, 1-th*th, 0)
}

// Log returns ln(v). It panics for non-positive inputs.
func (v Value) Log() Value {
	x := v.Value()
	if x <= 0 {
		panic(fmt.Sprintf("autodiff: Log of non-positive value %v", x))
	}
	return v.tape.push(math.Log(x), v.idx, -1, 1/x, 0)
}

// Min returns min(v, o), routing the gradient to the attaining argument
// (to v on ties — the standard subgradient choice for the truncation in
// Eq. 4 of the paper).
func (v Value) Min(o Value) Value {
	v.sameTape(o)
	if v.Value() <= o.Value() {
		return v.tape.push(v.Value(), v.idx, o.idx, 1, 0)
	}
	return v.tape.push(o.Value(), v.idx, o.idx, 0, 1)
}

// Max returns max(v, o), routing the gradient to the attaining argument
// (to v on ties).
func (v Value) Max(o Value) Value {
	v.sameTape(o)
	if v.Value() >= o.Value() {
		return v.tape.push(v.Value(), v.idx, o.idx, 1, 0)
	}
	return v.tape.push(o.Value(), v.idx, o.idx, 0, 1)
}

// MinAll returns the minimum of vs, which must be non-empty and live on one
// tape. Gradient flows to the single attaining argument.
func MinAll(vs ...Value) Value {
	if len(vs) == 0 {
		panic("autodiff: MinAll of no values")
	}
	out := vs[0]
	for _, v := range vs[1:] {
		out = out.Min(v)
	}
	return out
}

// SumAll returns the sum of vs, which must be non-empty and live on one
// tape.
func SumAll(vs ...Value) Value {
	if len(vs) == 0 {
		panic("autodiff: SumAll of no values")
	}
	out := vs[0]
	for _, v := range vs[1:] {
		out = out.Add(v)
	}
	return out
}

// Dot returns Σ cᵢ·vᵢ for plain constants c. Lengths must match and be
// non-zero.
func Dot(c []float64, vs []Value) Value {
	if len(c) != len(vs) || len(c) == 0 {
		panic("autodiff: Dot length mismatch or empty")
	}
	out := vs[0].Scale(c[0])
	for i := 1; i < len(vs); i++ {
		out = out.Add(vs[i].Scale(c[i]))
	}
	return out
}

// Backward runs the reverse sweep from output and returns the gradient of
// output with respect to every node on the tape, indexed like the tape.
// Use Value.Grad to read individual entries, or call this once and index
// by the variables' handles via GradOf.
func (t *Tape) Backward(output Value) []float64 {
	return t.backward(output, make([]float64, len(t.nodes)))
}

// backward is Backward into adj, which must be zeroed and as long as the
// tape.
func (t *Tape) backward(output Value, adj []float64) []float64 {
	if output.tape != t {
		panic("autodiff: Backward with foreign output")
	}
	adj[output.idx] = 1
	for i := output.idx; i >= 0; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		n := &t.nodes[i]
		if n.parents[0] >= 0 {
			adj[n.parents[0]] += a * n.grads[0]
		}
		if n.parents[1] >= 0 {
			adj[n.parents[1]] += a * n.grads[1]
		}
	}
	return adj
}

// GradOf extracts the partial for variable v from a Backward result.
func GradOf(adj []float64, v Value) float64 { return adj[v.idx] }

// Gradient evaluates f over fresh variables at x and returns (f(x),
// ∇f(x)) in a gradient slice the caller owns. The callback must build its
// result on the provided tape using the supplied variable handles.
func Gradient(x []float64, f func(t *Tape, vars []Value) Value) (float64, []float64) {
	return new(Workspace).Gradient(x, f)
}

// Workspace is the reusable scratch of Gradient: the tape, the variable
// handles, the adjoint and the gradient, grown once and reset per call,
// so an optimizer's inner loop differentiates without allocating. The
// zero value is ready to use. A Workspace is not safe for concurrent use.
type Workspace struct {
	tape Tape
	vars []Value
	adj  []float64
	grad []float64
}

// Gradient is the package-level Gradient on w's storage. The returned
// gradient aliases w and is valid only until the next call on w; copy it
// to retain it.
//
//lint:hotpath
func (w *Workspace) Gradient(x []float64, f func(t *Tape, vars []Value) Value) (float64, []float64) {
	t := &w.tape
	t.Reset()
	if cap(w.vars) < len(x) {
		w.vars = make([]Value, len(x))
		w.grad = make([]float64, len(x))
	}
	w.vars = w.vars[:len(x)]
	w.grad = w.grad[:len(x)]
	for i, xi := range x {
		w.vars[i] = t.Var(xi)
	}
	out := f(t, w.vars)
	if cap(w.adj) < len(t.nodes) {
		w.adj = make([]float64, len(t.nodes))
	}
	w.adj = w.adj[:len(t.nodes)]
	clear(w.adj)
	adj := t.backward(out, w.adj)
	for i, v := range w.vars {
		w.grad[i] = GradOf(adj, v)
	}
	return out.Value(), w.grad
}
