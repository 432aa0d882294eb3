package linalg

import (
	"math"
	"testing"
)

// fuzzMatrix decodes raw fuzz bytes into an n×n matrix B with entries in
// [-4, 4) and returns the SPD matrix A = BᵀB + εI. The ridge keeps A
// comfortably positive definite so the factorization must succeed; the
// fuzzer's job is to explore the numerical range, not to find singular
// inputs (those are covered by explicit ErrNotSPD tests).
func fuzzSPD(data []byte) (*Matrix, int) {
	if len(data) == 0 {
		return nil, 0
	}
	n := 2 + int(data[0])%5 // 2..6
	data = data[1:]
	if len(data) < n*n {
		return nil, 0
	}
	b := NewMatrix(n, n)
	for i := 0; i < n*n; i++ {
		b.Data[i] = (float64(data[i]) - 128) / 32
	}
	return b.T().Mul(b).AddScaledIdentity(1e-3 * float64(n)), n
}

// FuzzNewCholesky checks the factorization round trip: for any SPD input
// A built from fuzz bytes, NewCholesky must succeed, produce a lower
// triangular L with positive diagonal, and satisfy L·Lᵀ ≈ A.
func FuzzNewCholesky(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 200, 10, 128, 128, 60, 250, 0, 128, 1, 99, 128, 128, 33, 77, 128, 128})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, n := fuzzSPD(data)
		if a == nil {
			t.Skip("not enough bytes")
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("SPD matrix rejected: %v\nA = %v", err, a)
		}
		l := c.dense()
		var scale float64
		for _, v := range a.Data {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		tol := 1e-10 * (scale + 1)
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				t.Fatalf("L[%d][%d] = %v, want > 0", i, i, l.At(i, i))
			}
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("L[%d][%d] = %v above the diagonal, want 0", i, j, l.At(i, j))
				}
			}
			for j := 0; j <= i; j++ {
				var s float64
				for k := 0; k <= j; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > tol {
					t.Fatalf("(L·Lᵀ)[%d][%d] = %v, want %v (±%v)", i, j, s, a.At(i, j), tol)
				}
			}
		}
	})
}

// FuzzCholeskyExtend checks the documented Extend contract: factorizing
// the leading (n−1)×(n−1) block and extending with the border row must be
// bit-identical to factorizing the full matrix from scratch.
func FuzzCholeskyExtend(f *testing.F) {
	f.Add([]byte{1, 3, 141, 59, 26, 53, 58, 97, 93, 238, 46})
	f.Add([]byte{4, 128, 0, 255, 17, 42, 128, 128, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, n := fuzzSPD(data)
		if a == nil || n < 2 {
			t.Skip("not enough bytes")
		}
		lead := NewMatrix(n-1, n-1)
		for i := 0; i < n-1; i++ {
			for j := 0; j < n-1; j++ {
				lead.Set(i, j, a.At(i, j))
			}
		}
		ext, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("leading block rejected: %v", err)
		}
		row := make([]float64, n-1)
		for j := 0; j < n-1; j++ {
			row[j] = a.At(n-1, j)
		}
		if err := ext.Extend(row, a.At(n-1, n-1)); err != nil {
			t.Fatalf("Extend of SPD border failed: %v", err)
		}
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("full matrix rejected: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got, want := ext.At(i, j), full.At(i, j); got != want {
					t.Fatalf("extended L[%d][%d] = %v, from-scratch = %v: not bit-identical", i, j, got, want)
				}
			}
		}
	})
}

// FuzzCholeskyUpdateDiag checks the UpdateDiag contract on every
// fuzz-generated SPD matrix: factor a fuzz-chosen leading block, Extend
// it row by row to the full matrix, then change a fuzz-chosen diagonal
// entry by less than the ridge; the updated factor must equal NewCholesky
// of the updated matrix bit for bit.
func FuzzCholeskyUpdateDiag(f *testing.F) {
	f.Add([]byte{1, 3, 141, 59, 26, 53, 58, 97, 93, 238, 46})
	f.Add([]byte{4, 128, 0, 255, 17, 42, 128, 128, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, n := fuzzSPD(data)
		if a == nil || len(data) < 4 {
			t.Skip("not enough bytes")
		}
		m := 1 + int(data[len(data)-3])%n
		ch, err := NewCholesky(leadingMinor(a, m))
		if err != nil {
			t.Fatalf("leading block rejected: %v", err)
		}
		for k := m; k < n; k++ {
			if err := ch.Extend(a.Data[k*n:k*n+k], a.At(k, k)); err != nil {
				t.Fatalf("Extend of SPD border failed: %v", err)
			}
		}
		j := int(data[len(data)-2]) % n
		// fuzzSPD's ridge is 1e-3·n, so a change in (−ridge, +ridge) keeps
		// the matrix positive definite.
		a.Set(j, j, a.At(j, j)+1e-3*float64(n)*(float64(data[len(data)-1])-128)/129)
		if err := ch.UpdateDiag(j, a.At(j, j)); err != nil {
			t.Fatalf("UpdateDiag(%d) failed: %v", j, err)
		}
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("updated matrix rejected: %v", err)
		}
		for i := 0; i < n; i++ {
			for k := 0; k <= i; k++ {
				if got, want := ch.At(i, k), ref.At(i, k); got != want {
					t.Fatalf("updated L[%d][%d] = %v, from-scratch = %v: not bit-identical", i, k, got, want)
				}
			}
		}
	})
}
