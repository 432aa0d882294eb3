// Package gp implements exact Gaussian-process regression with the
// squared-exponential kernel used by Dragster (Eq. 7 and Eq. 17 of the
// paper), isotropic or with one length scale per dimension (ARD). It
// replaces the Python sklearn dependency of the original implementation.
package gp

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function over configuration
// vectors.
type Kernel interface {
	// Eval returns k(x, x'). Implementations must be symmetric and return
	// the process variance when x == x'.
	Eval(x, y []float64) float64
}

// SquaredExponential is the SE (RBF) kernel
// k(x, x') = σ_f² · exp(−‖x−x'‖² / (2ℓ²)).
// The paper's Theorem 1 relies on its Γ_T = O((log T)^{d+1}) information
// gain.
type SquaredExponential struct {
	LengthScale float64 // ℓ > 0
	Variance    float64 // σ_f² > 0
}

// NewSquaredExponential validates the hyperparameters and returns the
// kernel.
func NewSquaredExponential(lengthScale, variance float64) (SquaredExponential, error) {
	if lengthScale <= 0 || variance <= 0 {
		return SquaredExponential{}, fmt.Errorf("gp: SE kernel requires positive hyperparameters, got ℓ=%v σ_f²=%v", lengthScale, variance)
	}
	return SquaredExponential{LengthScale: lengthScale, Variance: variance}, nil
}

// Eval implements Kernel.
func (k SquaredExponential) Eval(x, y []float64) float64 {
	return k.Variance * math.Exp(-sqDist(x, y)/(2*k.LengthScale*k.LengthScale))
}

// ARDSquaredExponential is the SE kernel with automatic-relevance-
// determination length scales — one per input dimension:
//
//	k(x, x') = σ_f² · exp(−½ Σ_d (x_d−x'_d)²/ℓ_d²).
//
// Required for multi-dimensional configuration spaces whose axes live on
// different scales (task counts 1..10 versus CPU millicores 500..2000).
type ARDSquaredExponential struct {
	LengthScales []float64
	Variance     float64
}

// NewARDSquaredExponential validates the hyperparameters.
func NewARDSquaredExponential(lengthScales []float64, variance float64) (ARDSquaredExponential, error) {
	if len(lengthScales) == 0 {
		return ARDSquaredExponential{}, fmt.Errorf("gp: ARD kernel needs at least one length scale")
	}
	for d, l := range lengthScales {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return ARDSquaredExponential{}, fmt.Errorf("gp: ARD length scale %d = %v invalid", d, l)
		}
	}
	if variance <= 0 {
		return ARDSquaredExponential{}, fmt.Errorf("gp: ARD variance %v must be positive", variance)
	}
	return ARDSquaredExponential{
		LengthScales: append([]float64(nil), lengthScales...),
		Variance:     variance,
	}, nil
}

// Eval implements Kernel.
func (k ARDSquaredExponential) Eval(x, y []float64) float64 {
	if len(x) != len(y) || len(x) != len(k.LengthScales) {
		panic(fmt.Sprintf("gp: ARD kernel dimension mismatch: %d vs %d (scales %d)", len(x), len(y), len(k.LengthScales)))
	}
	var s float64
	for d := range x {
		r := (x[d] - y[d]) / k.LengthScales[d]
		s += r * r
	}
	return k.Variance * math.Exp(-s/2)
}

func sqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: kernel inputs of different dimension: %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}
