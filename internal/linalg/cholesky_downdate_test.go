package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// deleteRowCol returns a copy of a with row i and column i removed.
func deleteRowCol(a *Matrix, i int) *Matrix {
	n := a.Rows
	m := NewMatrix(n-1, n-1)
	for r, rr := 0, 0; r < n; r++ {
		if r == i {
			continue
		}
		for c, cc := 0, 0; c < n; c++ {
			if c == i {
				continue
			}
			m.Set(rr, cc, a.At(r, c))
			cc++
		}
		rr++
	}
	return m
}

// TestDowndateBitIdenticalToFromScratch is the removal dual of the Extend
// cornerstone: deleting any observation from a factor must produce the
// exact same bits as refactorizing the retained submatrix from scratch.
// The budgeted-GP exact-posterior oracle (internal/gp) reduces to this
// equality, so it is exact, not approximate.
func TestDowndateBitIdenticalToFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		a := randomSPD(rng, n)
		for i := 0; i < n; i++ {
			ch, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Downdate(i); err != nil {
				t.Fatalf("trial %d: Downdate(%d): %v", trial, i, err)
			}
			if ch.n != n-1 {
				t.Fatalf("trial %d: N() = %d after Downdate, want %d", trial, ch.n, n-1)
			}
			ref, err := NewCholesky(deleteRowCol(a, i))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n-1; r++ {
				for c := 0; c < n-1; c++ {
					if got, want := ch.At(r, c), ref.At(r, c); got != want {
						t.Fatalf("trial %d remove %d: L[%d][%d] = %v downdated, %v from scratch",
							trial, i, r, c, got, want)
					}
				}
			}
		}
	}
}

// TestDowndateNewestIsTruncation pins the O(n) fast case: removing the
// most recent observation recomputes nothing, so the surviving factor
// entries are exactly the original leading minor's.
func TestDowndateNewestIsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 12
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.dense()
	if err := ch.Downdate(n - 1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n-1; r++ {
		for c := 0; c < n-1; c++ {
			if ch.At(r, c) != before.At(r, c) {
				t.Fatalf("L[%d][%d] changed on newest-row Downdate", r, c)
			}
		}
	}
}

// TestExtendDowndateRoundTrip: bordering a factor and then removing the
// border restores the original factor bit for bit, including after the
// in-place restride reused the grown backing array.
func TestExtendDowndateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 10
	a := randomSPD(rng, n+1)
	ch, err := NewCholesky(leadingMinor(a, n))
	if err != nil {
		t.Fatal(err)
	}
	before := ch.dense()
	row := make([]float64, n)
	for i := range row {
		row[i] = a.At(n, i)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := ch.Extend(row, a.At(n, n)); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := ch.Downdate(n); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if ch.n != n {
			t.Fatalf("cycle %d: N() = %d, want %d", cycle, ch.n, n)
		}
		for r := 0; r < n; r++ {
			for c := 0; c <= r; c++ {
				if ch.At(r, c) != before.At(r, c) {
					t.Fatalf("cycle %d: L[%d][%d] drifted", cycle, r, c)
				}
			}
		}
	}
}

// TestDowndateExtendInterleaved drives a random evict/extend schedule
// against a reference factorization of the retained submatrix after every
// step — the linalg-level core of the gp-level exact-posterior oracle.
func TestDowndateExtendInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	big := randomSPD(rng, 40)
	// retained indexes into big, in insertion order
	retained := []int{0, 1, 2}
	sub := func() *Matrix {
		m := NewMatrix(len(retained), len(retained))
		for r, ri := range retained {
			for c, ci := range retained {
				m.Set(r, c, big.At(ri, ci))
			}
		}
		return m
	}
	ch, err := NewCholesky(sub())
	if err != nil {
		t.Fatal(err)
	}
	next := 3
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 && next < big.Rows {
			row := make([]float64, len(retained))
			for j, ri := range retained {
				row[j] = big.At(next, ri)
			}
			if err := ch.Extend(row, big.At(next, next)); err != nil {
				t.Fatalf("step %d: extend: %v", step, err)
			}
			retained = append(retained, next)
			next++
		} else if len(retained) > 1 {
			i := rng.Intn(len(retained))
			if err := ch.Downdate(i); err != nil {
				t.Fatalf("step %d: downdate(%d): %v", step, i, err)
			}
			retained = append(retained[:i], retained[i+1:]...)
		}
		ref, err := NewCholesky(sub())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < len(retained); r++ {
			for c := 0; c <= r; c++ {
				if ch.At(r, c) != ref.At(r, c) {
					t.Fatalf("step %d: L[%d][%d] = %v, from scratch %v",
						step, r, c, ch.At(r, c), ref.At(r, c))
				}
			}
		}
	}
}

// TestDowndateThenSolve checks the factor still solves its matrix after
// removals: A'·x = b residual at numerical tolerance.
func TestDowndateThenSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 16
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	sub := a.Clone()
	for _, i := range []int{3, 0, 7} {
		if err := ch.Downdate(i); err != nil {
			t.Fatal(err)
		}
		sub = deleteRowCol(sub, i)
	}
	m := sub.Rows
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := ch.SolveVec(b)
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < m; j++ {
			s += sub.At(i, j) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-8 {
			t.Fatalf("residual[%d] = %v after downdates", i, s-b[i])
		}
	}
}

func TestDowndatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	rng := rand.New(rand.NewSource(53))
	a := randomSPD(rng, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("out of range high", func() { _ = ch.Downdate(3) })
	mustPanic("out of range low", func() { _ = ch.Downdate(-1) })
	one, err := NewCholesky(NewMatrixFrom(1, 1, []float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("would empty", func() { _ = one.Downdate(0) })
}

// TestDowndateExtendAllocFree pins the bounded-memory contract: once the
// backing arrays have grown to the budget size, an evict-then-extend
// cycle performs zero heap allocations.
func TestDowndateExtendAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := 32
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n-1)
	cycle := func() {
		if err := ch.Downdate(0); err != nil {
			t.Fatal(err)
		}
		for i := range row {
			row[i] = 0
		}
		if err := ch.Extend(row, 1+a.At(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("evict-then-extend cycle allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkCholeskyDowndateOldest64(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	n := 64
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, n-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Downdate(0); err != nil {
			b.Fatal(err)
		}
		if err := ch.Extend(row, 1+a.At(0, 0)); err != nil {
			b.Fatal(err)
		}
	}
}
