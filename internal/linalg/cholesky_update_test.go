package linalg

import (
	"math/rand"
	"testing"
)

// requireSameFactor fails unless got and want hold bit-identical factors.
func requireSameFactor(t *testing.T, got, want *Cholesky, ctx string) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: order %d, want %d", ctx, got.n, want.n)
	}
	for i := 0; i < want.n; i++ {
		for j := 0; j <= i; j++ {
			if g, w := got.At(i, j), want.At(i, j); g != w {
				t.Fatalf("%s: L[%d][%d] = %v, from-scratch = %v: not bit-identical", ctx, i, j, g, w)
			}
		}
	}
}

// TestUpdateDiagBitIdenticalToFromScratch pins the diagonal update the GP
// runs when a configuration is observed again: a factor grown by Extend,
// then given a run of diagonal changes at random indices, must equal
// NewCholesky of the updated matrix bit for bit after every step, and
// still solve its matrix.
func TestUpdateDiagBitIdenticalToFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		a := randomSPD(rng, n)
		m := 1 + rng.Intn(n)
		ch, err := NewCholesky(leadingMinor(a, m))
		if err != nil {
			t.Fatal(err)
		}
		for k := m; k < n; k++ {
			if err := ch.Extend(a.Data[k*n:k*n+k], a.At(k, k)); err != nil {
				t.Fatal(err)
			}
		}
		orig := make([]float64, n)
		for i := range orig {
			orig[i] = a.At(i, i)
		}
		for step := 0; step < 6; step++ {
			j := rng.Intn(n)
			// Shrinking a diagonal by less than the n·I ridge keeps A SPD,
			// the way a repeated observation shrinks its row's noise.
			a.Set(j, j, orig[j]-0.9*float64(n)*rng.Float64())
			if err := ch.UpdateDiag(j, a.At(j, j)); err != nil {
				t.Fatalf("trial %d step %d: UpdateDiag(%d): %v", trial, step, j, err)
			}
			ref, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFactor(t, ch, ref, "after UpdateDiag")
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := ch.SolveVec(b)
		r := a.MulVec(x)
		for i := range b {
			if d := r[i] - b[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d: (A·x)[%d] = %v, want %v", trial, i, r[i], b[i])
			}
		}
	}
}

// TestUpdateDiagThenSolve checks the factor still solves its matrix after
// a run of diagonal updates at fixed rows: A'·x = b residual at numerical
// tolerance.
func TestUpdateDiagThenSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 16
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{3, 0, 7, 3} {
		a.Set(j, j, a.At(j, j)-0.4*float64(n))
		if err := ch.UpdateDiag(j, a.At(j, j)); err != nil {
			t.Fatal(err)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := ch.SolveVec(b)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x[j]
		}
		if d := s - b[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("residual[%d] = %v after diagonal updates", i, d)
		}
	}
}

// TestUpdateDiagRejectsNonSPD: a diagonal too small for A to stay
// positive definite is reported as ErrNotSPD.
func TestUpdateDiagRejectsNonSPD(t *testing.T) {
	ch, err := NewCholesky(NewMatrixFrom(2, 2, []float64{4, 2, 2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.UpdateDiag(1, 1); err != ErrNotSPD {
		t.Fatalf("UpdateDiag to a singular matrix: err = %v, want ErrNotSPD", err)
	}
}

// TestUpdateDiagPanicsOutOfRange: the index must name a row of the factor.
func TestUpdateDiagPanicsOutOfRange(t *testing.T) {
	ch, err := NewCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UpdateDiag(%d) on an order-3 factor did not panic", j)
				}
			}()
			_ = ch.UpdateDiag(j, 1)
		}()
	}
}

// TestUpdateDiagAllocFree: the update rewrites the factor in place.
func TestUpdateDiagAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomSPD(rng, 24)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := ch.UpdateDiag(0, a.At(0, 0)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("UpdateDiag allocates %v times, want 0", allocs)
	}
}

// BenchmarkCholeskyUpdateDiagFirst24 times the worst case at the GP's
// largest row count on the shipped grids: updating row 0 of an order-24
// factor refactors every column.
func BenchmarkCholeskyUpdateDiagFirst24(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	a := randomSPD(rng, 24)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.UpdateDiag(0, a.At(0, 0)); err != nil {
			b.Fatal(err)
		}
	}
}
