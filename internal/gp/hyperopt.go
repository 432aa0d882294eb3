package gp

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/linalg"
	"dragster/internal/par"
)

// SetKernel swaps the regressor's kernel, keeping all observations; the
// posterior is refitted lazily from scratch (the incremental factor is
// kernel-specific), and the candidate cache is rebuilt under the new
// kernel. Used by hyperparameter optimization.
func (r *Regressor) SetKernel(k Kernel) error {
	if k == nil {
		return errors.New("gp: nil kernel")
	}
	r.kernel = k
	r.dirty = true
	r.resetCandidates()
	return nil
}

// HyperGrid describes the SE-kernel search space for MaximizeLML.
type HyperGrid struct {
	LengthScales []float64
	Variances    []float64
}

// DefaultHyperGrid spans length scales from 10% to 100% of diameter and
// variances bracketing the observed target variance — the ranges a
// practitioner would hand to sklearn's optimizer.
func DefaultHyperGrid(diameter, targetVar float64) (HyperGrid, error) {
	if diameter <= 0 || targetVar <= 0 {
		return HyperGrid{}, fmt.Errorf("gp: hyper grid needs positive diameter (%v) and variance (%v)", diameter, targetVar)
	}
	var g HyperGrid
	for _, f := range []float64{0.1, 0.2, 0.35, 0.5, 0.75, 1.0} {
		g.LengthScales = append(g.LengthScales, f*diameter)
	}
	for _, f := range []float64{0.5, 1, 2, 4} {
		g.Variances = append(g.Variances, f*targetVar)
	}
	return g, nil
}

// MaximizeLML fits SE-kernel hyperparameters by exhaustive search over the
// grid, maximizing the log marginal likelihood of the regressor's current
// observations. It scores the row means (LogMarginalLikelihood), which
// differ from the raw observations' likelihood by a kernel-independent
// term, so both pick the same grid point. The grid is evaluated on a
// snapshot of the observations through par.For, one length scale per
// task and one worker per CPU: each task evaluates the pairwise
// exp(−d²/(2ℓ²)) once, then builds, factorizes and scores the Gram
// matrix of every variance from it. The live regressor — kernel,
// factorization, information gain — is untouched until a winner is
// chosen; every non-success path therefore leaves the pre-call kernel in
// place. The argmax is reduced serially in grid order (length scales
// outer, variances inner, first strict improvement wins), so the
// selected kernel is byte-identical regardless of worker count or
// goroutine scheduling. On success the regressor's kernel is replaced by
// the best one and the winning (lengthScale, variance, lml) triple is
// returned. With fewer than 3 observations it is a no-op returning
// ErrTooFewPoints.
func (r *Regressor) MaximizeLML(grid HyperGrid) (lengthScale, variance, lml float64, err error) {
	return r.maximizeLML(grid, 0)
}

// maximizeLML is MaximizeLML at an explicit par.For worker count (≤ 0 =
// one per CPU); the determinism tests pin it.
func (r *Regressor) maximizeLML(grid HyperGrid, workers int) (lengthScale, variance, lml float64, err error) {
	if r.Len() < 3 {
		return 0, 0, 0, ErrTooFewPoints
	}
	if len(grid.LengthScales) == 0 || len(grid.Variances) == 0 {
		return 0, 0, 0, errors.New("gp: empty hyperparameter grid")
	}
	// Validate the whole grid before the fan-out so an invalid
	// hyperparameter pair errors deterministically with nothing mutated.
	for _, ls := range grid.LengthScales {
		for _, v := range grid.Variances {
			if _, kerr := NewSquaredExponential(ls, v); kerr != nil {
				return 0, 0, 0, kerr
			}
		}
	}
	lmls, feasible := r.gridLML(grid, workers)
	nv := len(grid.Variances)
	best := -1
	bestLML := math.Inf(-1)
	for i := range lmls {
		if feasible[i] && lmls[i] > bestLML {
			bestLML, best = lmls[i], i
		}
	}
	if best == -1 {
		// Nothing evaluated cleanly; the live kernel was never swapped.
		return 0, 0, 0, errors.New("gp: no feasible hyperparameters in grid")
	}
	ls, v := grid.LengthScales[best/nv], grid.Variances[best%nv]
	kernel, err := NewSquaredExponential(ls, v)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := r.SetKernel(kernel); err != nil {
		return 0, 0, 0, err
	}
	return ls, v, bestLML, nil
}

// gridLML scores every grid point of a validated grid, in grid order
// (length scales outer, variances inner): lmls[i] is the row-mean LML
// under point i's SE kernel and feasible[i] reports that its system
// factorized. Each par.For task takes one length scale ℓ, fills
// e_ij = exp(−‖x_i−x_j‖²/(2ℓ²)) once, and builds each variance's Gram
// as σ_f²·e_ij — the float expression SquaredExponential.Eval computes —
// so every score is bit-equal to factorSystem, solveWeights and
// lmlFromFit under that kernel. The rows are not mutated for the
// duration of the call (the Regressor is single-owner), so sharing the
// backing slices with the workers is a read-only snapshot.
func (r *Regressor) gridLML(grid HyperGrid, workers int) (lmls []float64, feasible []bool) {
	nv := len(grid.Variances)
	lmls = make([]float64, len(grid.LengthScales)*nv)
	feasible = make([]bool, len(lmls))
	n := len(r.xs)
	par.For(len(grid.LengthScales), workers, func(li int) {
		ls := grid.LengthScales[li]
		e := make([]float64, n*n)
		for i := 0; i < n; i++ {
			e[i*n+i] = math.Exp(-sqDist(r.xs[i], r.xs[i]) / (2 * ls * ls))
			for j := i + 1; j < n; j++ {
				d := math.Exp(-sqDist(r.xs[i], r.xs[j]) / (2 * ls * ls))
				e[i*n+j] = d
				e[j*n+i] = d
			}
		}
		k := linalg.NewMatrix(n, n)
		var alpha []float64
		for vi, v := range grid.Variances {
			for idx, d := range e {
				k.Data[idx] = v * d
			}
			chol, ferr := factorGram(k, r.counts, r.noiseVar)
			if ferr != nil {
				continue // numerically infeasible combination; skip
			}
			var mean float64
			mean, alpha = solveWeights(alpha, chol, r.counts, r.sums, r.ySum, r.n)
			lmls[li*nv+vi] = lmlFromFit(r.counts, r.sums, mean, alpha, chol)
			feasible[li*nv+vi] = true
		}
	})
	return lmls, feasible
}

// ErrTooFewPoints is returned by MaximizeLML before enough observations
// exist to fit hyperparameters meaningfully.
var ErrTooFewPoints = errors.New("gp: too few observations for hyperparameter fit")
