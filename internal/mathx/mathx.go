// Package mathx provides small numeric helpers shared across the Dragster
// code base: clamping, integer sums, inner products and norms.
//
// Everything here is allocation-free and safe for concurrent use.
package mathx

import "math"

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// SumInts returns the sum of xs (e.g. Σ tasks of a configuration).
func SumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of xs, guarding against overflow by
// scaling with the largest magnitude.
func Norm2(xs []float64) float64 {
	var maxAbs float64
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) {
		return maxAbs
	}
	var s float64
	for _, x := range xs {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}
