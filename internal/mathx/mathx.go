// Package mathx provides small numeric helpers shared across the Dragster
// code base: clamping, tolerant comparison, compensated summation and
// arg-extrema over float slices.
//
// Everything here is allocation-free and safe for concurrent use.
package mathx

import "math"

// DefaultTol is the tolerance used by Approx when callers have no better
// problem-specific scale.
const DefaultTol = 1e-9

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

// ClampInt limits v to the closed interval [lo, hi]. It panics if lo > hi.
func ClampInt(v, lo, hi int) int {
	if lo > hi {
		panic("mathx: ClampInt with lo > hi")
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

// Approx reports whether a and b are equal within an absolute-or-relative
// tolerance tol. NaNs are never approximately equal to anything.
func Approx(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Sum returns the compensated (Kahan) sum of xs. It is more accurate than a
// naive loop when xs mixes magnitudes, which happens routinely when
// accumulating per-tick tuple counts over thousand-slot experiments.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
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

// ArgMax returns the index of the largest element of xs, breaking ties in
// favour of the smallest index. It returns -1 for an empty slice. NaN
// elements are skipped; if every element is NaN the result is -1.
func ArgMax(xs []float64) int {
	best := -1
	bestV := math.Inf(-1)
	for i, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if best == -1 || x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// ArgMin returns the index of the smallest element of xs, breaking ties in
// favour of the smallest index. It returns -1 for an empty slice, skipping
// NaNs as ArgMax does.
func ArgMin(xs []float64) int {
	best := -1
	bestV := math.Inf(1)
	for i, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if best == -1 || x < bestV {
			best, bestV = i, x
		}
	}
	return best
}

// MaxOf returns the largest of xs, or -Inf when xs is empty.
func MaxOf(xs ...float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MinOf returns the smallest of xs, or +Inf when xs is empty.
func MinOf(xs ...float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
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

// Lerp linearly interpolates between a and b: Lerp(a, b, 0) == a and
// Lerp(a, b, 1) == b. t is not clamped.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
