package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// leadingMinor returns the top-left k×k block of a.
func leadingMinor(a *Matrix, k int) *Matrix {
	m := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(i, j, a.At(i, j))
		}
	}
	return m
}

// TestExtendBitIdenticalToFromScratch is the incremental-GP cornerstone:
// growing a factor one bordered row at a time must produce the exact same
// bits as refactorizing each leading minor from scratch, because the
// extension mirrors NewCholesky's column recurrence term for term. The
// determinism regression tests (byte-identical seeded figures) depend on
// this equality, so it is exact, not approximate.
func TestExtendBitIdenticalToFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		a := randomSPD(rng, n)
		inc, err := NewCholesky(leadingMinor(a, 1))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < n; k++ {
			row := make([]float64, k)
			for i := 0; i < k; i++ {
				row[i] = a.At(k, i)
			}
			if err := inc.Extend(row, a.At(k, k)); err != nil {
				t.Fatalf("trial %d: extend to %d: %v", trial, k+1, err)
			}
			ref, err := NewCholesky(leadingMinor(a, k+1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k+1; i++ {
				for j := 0; j < k+1; j++ {
					if inc.At(i, j) != ref.At(i, j) {
						t.Fatalf("trial %d size %d: L[%d][%d] = %v incremental, %v from scratch",
							trial, k+1, i, j, inc.At(i, j), ref.At(i, j))
					}
				}
			}
		}
		if inc.n != n {
			t.Fatalf("N() = %d, want %d", inc.n, n)
		}
	}
}

func TestExtendRejectsNonSPDAndLeavesFactorIntact(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 1, 1, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.dense()
	// Bordering with diag 0 makes the pivot non-positive.
	if err := ch.Extend([]float64{1, 1}, 0); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if ch.n != 2 {
		t.Fatalf("failed Extend changed order to %d", ch.n)
	}
	for i := range before.Data {
		if ch.dense().Data[i] != before.Data[i] {
			t.Fatal("failed Extend mutated the factor")
		}
	}
}

func TestExtendPanicsOnRowLengthMismatch(t *testing.T) {
	ch, err := NewCholesky(NewMatrixFrom(2, 2, []float64{4, 1, 1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extend with wrong row length did not panic")
		}
	}()
	if err := ch.Extend([]float64{1}, 5); err != nil {
		t.Fatal(err)
	}
}

func TestSolveIntoMatchesAllocatingAndSupportsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(20)
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := ch.SolveVec(b)
		dst := make([]float64, n)
		if got := ch.SolveVecInto(dst, b); &got[0] != &dst[0] {
			t.Fatal("SolveVecInto did not return dst")
		}
		aliased := append([]float64(nil), b...)
		ch.SolveVecInto(aliased, aliased)
		wantLower := ch.SolveLowerVec(b)
		lowerAliased := append([]float64(nil), b...)
		ch.SolveLowerVecInto(lowerAliased, lowerAliased)
		for i := 0; i < n; i++ {
			if dst[i] != want[i] || aliased[i] != want[i] {
				t.Fatalf("SolveVecInto[%d] = %v / aliased %v, want %v", i, dst[i], aliased[i], want[i])
			}
			if lowerAliased[i] != wantLower[i] {
				t.Fatalf("SolveLowerVecInto aliased[%d] = %v, want %v", i, lowerAliased[i], wantLower[i])
			}
		}
		// Residual check: A·x ≈ b.
		x := dst
		var maxResid float64
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				var aij float64
				for k := 0; k <= i && k <= j; k++ {
					aij += ch.At(i, k) * ch.At(j, k)
				}
				s += aij * x[j]
			}
			if r := math.Abs(s - b[i]); r > maxResid {
				maxResid = r
			}
		}
		if maxResid > 1e-8 {
			t.Fatalf("residual %v too large", maxResid)
		}
	}
}

// TestExtendAllocsLogarithmic pins the append-only layout: growing a fresh
// order-1 factor to order 65 reallocates each packed array only when its
// capacity doubles, so 64 Extends allocate O(log n) times, not once each.
func TestExtendAllocsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randomSPD(rng, 65)
	one := leadingMinor(a, 1)
	rows := make([][]float64, 65)
	for k := 1; k < 65; k++ {
		rows[k] = append([]float64(nil), a.Data[k*65:k*65+k]...)
	}
	grow := func() {
		ch, err := NewCholesky(one)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < 65; k++ {
			if err := ch.Extend(rows[k], a.At(k, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two packed arrays of 2145 entries each grow geometrically from a
	// single entry: about a dozen reallocations apiece, plus NewCholesky's
	// own three allocations — well under one allocation per Extend.
	if allocs := testing.AllocsPerRun(20, grow); allocs > 40 {
		t.Fatalf("64 Extends allocate %.0f times, want O(log n) (≤ 40)", allocs)
	}
}

// BenchmarkCholeskyExtend64 times one Extend of an order-64 factor. Each
// iteration truncates the new row away again, so every timed Extend
// borders the same order-64 factor.
func BenchmarkCholeskyExtend64(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	a := randomSPD(rng, 65)
	ch, err := NewCholesky(leadingMinor(a, 64))
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, 64)
	for i := range row {
		row[i] = a.At(64, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Extend(row, a.At(64, 64)); err != nil {
			b.Fatal(err)
		}
		ch.truncate(64)
	}
}
