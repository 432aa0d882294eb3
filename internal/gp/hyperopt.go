package gp

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/par"
)

// SetKernel swaps the regressor's kernel, keeping all observations; the
// posterior is refitted lazily from scratch (the incremental factor is
// kernel-specific) and the kernel epoch advances so cross-covariance
// caches invalidate. Used by hyperparameter optimization.
func (r *Regressor) SetKernel(k Kernel) error {
	if k == nil {
		return errors.New("gp: nil kernel")
	}
	r.kernel = k
	r.kernelEpoch++
	r.dirty = true
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
// observations. Every (lengthScale, variance) grid point is evaluated on a
// snapshot of the observations through par.For, one worker per CPU. Each
// evaluation builds and factorizes its own Gram matrix, so the live
// regressor — kernel, factorization, information gain — is untouched
// until a winner is chosen; every non-success path therefore leaves the
// pre-call kernel in place. The argmax is reduced serially in grid order
// (length scales outer, variances inner, first strict improvement wins),
// so the selected kernel is byte-identical regardless of worker count or
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
	type gridPoint struct{ ls, v float64 }
	points := make([]gridPoint, 0, len(grid.LengthScales)*len(grid.Variances))
	for _, ls := range grid.LengthScales {
		for _, v := range grid.Variances {
			points = append(points, gridPoint{ls, v})
		}
	}
	// Validate the whole grid before the fan-out so an invalid
	// hyperparameter pair errors deterministically with nothing mutated.
	kernels := make([]Kernel, len(points))
	for i, p := range points {
		k, kerr := NewSquaredExponential(p.ls, p.v)
		if kerr != nil {
			return 0, 0, 0, kerr
		}
		kernels[i] = k
	}
	// xs/ys are append-only and not mutated for the duration of the call
	// (the Regressor is single-owner), so sharing the backing slices with
	// the workers is a read-only snapshot.
	lmls := make([]float64, len(points))
	feasible := make([]bool, len(points))
	par.For(len(points), workers, func(i int) {
		chol, ferr := factorSystem(r.xs, kernels[i], r.noiseVar)
		if ferr != nil {
			return // numerically infeasible combination; skip
		}
		mean, alpha := solveWeights(nil, chol, r.ys, r.ySum)
		lmls[i] = lmlFromFit(r.ys, mean, alpha, chol)
		feasible[i] = true
	})
	best := -1
	bestLML := math.Inf(-1)
	for i := range points {
		if feasible[i] && lmls[i] > bestLML {
			bestLML, best = lmls[i], i
		}
	}
	if best == -1 {
		// Nothing evaluated cleanly; the live kernel was never swapped.
		return 0, 0, 0, errors.New("gp: no feasible hyperparameters in grid")
	}
	if err := r.SetKernel(kernels[best]); err != nil {
		return 0, 0, 0, err
	}
	return points[best].ls, points[best].v, bestLML, nil
}

// ErrTooFewPoints is returned by MaximizeLML before enough observations
// exist to fit hyperparameters meaningfully.
var ErrTooFewPoints = errors.New("gp: too few observations for hyperparameter fit")
