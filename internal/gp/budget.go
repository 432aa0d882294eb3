package gp

import (
	"fmt"
	"math"
)

// SetObservationBudget caps the number of retained observations at
// budget, evicting immediately (and on every future Observe) the
// observation contributing the least information to the posterior: the
// one with the smallest conditional standard deviation given its
// predecessors, read off the Cholesky diagonal as
// L[i][i] = std(y_i | y_0..y_{i−1}) in O(1) per candidate. Ties break
// toward the oldest (lowest) index, so eviction is fully deterministic
// for a given observation sequence.
//
// A budget of 0 removes the cap; negative budgets are an error. The retained
// posterior stays bit-identical to a from-scratch fit of the retained
// set — eviction downdates the factor with linalg.Cholesky.Downdate and
// recomputes the centring sum with a fresh in-order loop, both of which
// reproduce the reference factorSystem/solveWeights arithmetic exactly.
func (r *Regressor) SetObservationBudget(budget int) error {
	if budget < 0 {
		return fmt.Errorf("gp: observation budget must be >= 0, got %d", budget)
	}
	r.budget = budget
	r.enforceBudget()
	return nil
}

// ObservationBudget returns the retained-observation cap (0 = unlimited).
func (r *Regressor) ObservationBudget() int { return r.budget }

// Evictions returns how many observations have been evicted so far.
func (r *Regressor) Evictions() uint64 { return r.evictions }

// SetEvictionHook installs (or, with nil, removes) a callback invoked
// with the retained-set index of every evicted observation, after the
// observation has been removed. The UCB layer uses it to delete the
// matching column of its cross-covariance cache instead of rebuilding
// the whole cache. The hook must not call back into the Regressor.
func (r *Regressor) SetEvictionHook(hook func(idx int)) { r.onEvict = hook }

// enforceBudget evicts until the retained set fits the budget. Observe
// adds one point at a time, so the loop almost always runs zero or one
// iteration; only a budget lowered mid-stream drains more.
func (r *Regressor) enforceBudget() {
	if r.budget <= 0 {
		return
	}
	for len(r.ys) > r.budget {
		r.evictOne()
	}
}

// evictOne removes the lowest-information observation. It never
// fails: if the factorization needed for the leverage scan cannot be
// produced, it falls back to evicting the oldest observation and leaves
// the regressor dirty so the next query refits from the retained set.
// In steady state (healthy factor, warm buffers) it allocates nothing.
//
//lint:hotpath
func (r *Regressor) evictOne() {
	n := len(r.ys)
	if n == 0 {
		return
	}
	idx := 0
	if n > 1 {
		if err := r.ensureFactor(); err == nil {
			best := math.Inf(1)
			for i := 0; i < n; i++ {
				if d := r.chol.At(i, i); d < best {
					best, idx = d, i
				}
			}
		}
	}
	// Remove from storage (forward compaction, nil-out the vacated slot so
	// the backing array does not pin the evicted point's slice).
	copy(r.xs[idx:], r.xs[idx+1:])
	r.xs[n-1] = nil
	r.xs = r.xs[:n-1]
	copy(r.ys[idx:], r.ys[idx+1:])
	r.ys = r.ys[:n-1]
	// Recompute the centring sum with a fresh in-order loop — a running
	// subtraction would drift from the in-order sum a regressor built from
	// the retained set holds, and break the bit-identity contract with a
	// from-scratch refit.
	var sum float64
	for _, y := range r.ys {
		sum += y
	}
	r.ySum = sum
	switch {
	case n == 1:
		// Retained set is empty; there is no factor of order zero.
		r.chol = nil
		r.dirty = true
	case r.dirty || r.chol == nil:
		// No current factor to downdate; the next query refits anyway.
		r.dirty = true
	default:
		if err := r.chol.Downdate(idx); err != nil {
			// Numerically degenerate downdate invalidated the factor.
			r.dirty = true
			break
		}
		r.alphaStale = true // ensureFit re-solves on the next read of μ
	}
	r.evictions++
	r.tracer.Metrics().Inc("gp_evictions")
	if r.onEvict != nil {
		r.onEvict(idx)
	}
}
