package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestNewMatrixFromPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrixFrom with wrong length did not panic")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("zero value At(0,0) = %v", got)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Errorf("Identity At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares backing storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T content wrong: %v", tr)
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec([]float64{1, 0, -1})
	want := []float64{-2, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMul(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{0, 1, 1, 0})
	got := a.Mul(b)
	want := NewMatrixFrom(2, 2, []float64{2, 1, 4, 3})
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", got, want)
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with incompatible dims did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestAddScaledIdentity(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	got := m.AddScaledIdentity(10)
	if got.At(0, 0) != 11 || got.At(1, 1) != 14 || got.At(0, 1) != 2 {
		t.Errorf("AddScaledIdentity = %v", got)
	}
	if m.At(0, 0) != 1 {
		t.Error("AddScaledIdentity mutated its receiver")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}).IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	if NewMatrixFrom(2, 2, []float64{1, 2, 3, 1}).IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1) {
		t.Error("non-square matrix cannot be symmetric")
	}
}

// randomSPD builds a random SPD matrix A = BᵀB + n·I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b).AddScaledIdentity(float64(n))
	return a
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// L·Lᵀ must reproduce A.
		l := ch.dense()
		rec := l.Mul(l.T())
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8*(1+math.Abs(a.Data[i])) {
				t.Fatalf("trial %d: reconstruction error at %d: %v vs %v", trial, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.SolveVec(b)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("trial %d: solve[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	cases := []*Matrix{
		NewMatrixFrom(2, 2, []float64{1, 2, 3, 4}),   // asymmetric
		NewMatrixFrom(2, 2, []float64{0, 0, 0, 0}),   // singular
		NewMatrixFrom(2, 2, []float64{-1, 0, 0, -1}), // negative definite
		NewMatrix(2, 3), // non-square
	}
	for i, a := range cases {
		if _, err := NewCholesky(a); err == nil {
			t.Errorf("case %d: expected ErrNotSPD", i)
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(4, 9): det = 36, log det = log 36.
	a := NewMatrixFrom(2, 2, []float64{4, 0, 0, 9})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.LogDet(), math.Log(36); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskySolveLowerVec(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 2, 2, 5})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 3}
	y := ch.SolveLowerVec(b)
	// Check L·y == b.
	back := ch.dense().MulVec(y)
	for i := range b {
		if math.Abs(back[i]-b[i]) > 1e-12 {
			t.Errorf("L·y [%d] = %v, want %v", i, back[i], b[i])
		}
	}
}

func TestCholeskySolveIdentityProperty(t *testing.T) {
	// Property: for any vector v, solving I·x = v returns v.
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		ch, err := NewCholesky(Identity(3))
		if err != nil {
			return false
		}
		got := ch.SolveVec([]float64{a, b, c})
		return got[0] == a && got[1] == b && got[2] == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholesky32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(rng, 64)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, 64)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveVec(v)
	}
}
