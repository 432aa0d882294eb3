package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 0, 0},
		{math.Inf(1), 0, 10, 10},
		{math.Inf(-1), 0, 10, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, 0) did not panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampPropertyInRange(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		got := Clamp(v, -3, 7)
		return got >= -3 && got <= 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumMatchesNaiveOnSmallInput(t *testing.T) {
	xs := []float64{1, 2, 3, 4.5, -2.5}
	if got := Sum(xs); got != 8 {
		t.Errorf("Sum = %v, want 8", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestSumCompensation(t *testing.T) {
	// 1 followed by many tiny values that a naive float64 loop drops.
	xs := make([]float64, 1+1e4)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e4*1e-16
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("compensated Sum = %.20f, want %.20f", got, want)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2(3,4) = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
	// Overflow guard: naive sum-of-squares would be +Inf here.
	if got := Norm2([]float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Errorf("Norm2 overflowed: %v", got)
	}
}

func TestNorm2PropertyNonNegativeAndScale(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		n := Norm2([]float64{a, b, c})
		if n < 0 {
			return false
		}
		// |x| scaling: Norm2(2x) == 2*Norm2(x) up to fp error.
		n2 := Norm2([]float64{2 * a, 2 * b, 2 * c})
		return n2 == 2*n || math.Abs(n2-2*n) <= 1e-9*math.Max(1, math.Max(n2, 2*n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
