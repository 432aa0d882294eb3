package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
// It is the workhorse behind the GP posterior (Eq. 17 of the Dragster
// paper): solving (K + σ²I)⁻¹ b reduces to two triangular solves.
//
// L is stored packed by rows: row i holds columns 0..i and starts at
// offset i(i+1)/2, so bordering the factor with a new row (Extend) is an
// append and the slice grows its capacity geometrically. The factor also
// retains the lower triangle of A itself, packed the same way and kept in
// sync by Extend, because Downdate — the removal dual of Extend — must
// recompute trailing factor columns from the original matrix entries to
// stay bit-identical with a from-scratch refactorization (L·Lᵀ only
// reproduces A up to rounding). Every factor is built by NewCholesky.
type Cholesky struct {
	n int
	l []float64 // L, packed lower-triangular rows
	a []float64 // lower triangle of A, packed like l
}

// tri returns the packed offset of row i: the entry count of rows 0..i−1.
func tri(i int) int { return i * (i + 1) / 2 }

// NewCholesky factorizes the SPD matrix a. It returns ErrNotSPD if a is not
// square, not symmetric within 1e-8·max|a|, or a pivot becomes non-positive.
// a is not modified (the factor keeps its own copy for Downdate).
func NewCholesky(a *Matrix) (*Cholesky, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, ErrNotSPD
	}
	var maxAbs float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if !a.IsSymmetric(1e-8*maxAbs + 1e-12) {
		return nil, ErrNotSPD
	}
	c := &Cholesky{n: n, l: make([]float64, tri(n)), a: make([]float64, tri(n))}
	for i := 0; i < n; i++ {
		copy(c.a[tri(i):tri(i)+i+1], a.Data[i*n:i*n+i+1])
	}
	if err := factorColumns(c.l, c.a, 0, n); err != nil {
		return nil, err
	}
	return c, nil
}

// factorColumns computes columns from..n−1 of the packed factor l of the
// packed n×n matrix a with the column recurrence
//
//	L[j][j] = √(A[j][j] − Σ_{k<j} L[j][k]²)
//	L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j],  i > j.
//
// Columns before from must already be final. NewCholesky runs it over
// every column and Downdate over the columns a deletion invalidated; both
// share this one float order, which is what makes them bit-identical.
func factorColumns(l, a []float64, from, n int) error {
	for j := from; j < n; j++ {
		lj := l[tri(j) : tri(j)+j+1]
		var d float64
		for _, v := range lj[:j] {
			d += v * v
		}
		d = a[tri(j)+j] - d
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		for i := j + 1; i < n; i++ {
			li := l[tri(i) : tri(i)+i+1]
			var s float64
			for k, v := range lj[:j] {
				s += li[k] * v
			}
			li[j] = (a[tri(i)+j] - s) / ljj
		}
	}
	return nil
}

// At returns L[i][j]; entries above the diagonal are 0. It panics if i or
// j is out of range.
func (c *Cholesky) At(i, j int) float64 {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("linalg: Cholesky.At(%d, %d) out of range [0,%d)", i, j, c.n))
	}
	if j > i {
		return 0
	}
	return c.l[tri(i)+j]
}

// Extend grows the factor of the n×n matrix A to the factor of the
// (n+1)×(n+1) bordered matrix
//
//	A' = ⎡A     row⎤
//	     ⎣rowᵀ  diag⎦
//
// in O(n²): the new off-diagonal row of L is the forward solve L·w = row
// and the new pivot is √(diag − wᵀw). row holds the n new off-diagonal
// entries A'[n][0..n−1]; diag is A'[n][n]. The arithmetic mirrors
// NewCholesky's column recurrence term for term, so an extended factor is
// bit-identical to refactorizing A' from scratch. On ErrNotSPD (the new
// pivot is not positive) the receiver is left unchanged — the border
// solve runs in the spare capacity past the packed factor and is
// committed only after the pivot check.
//
// Both packed arrays only append, so a run of Extends reallocates
// O(log n) times, and once a Downdate has shrunk the factor the next
// Extend refills the freed capacity without allocating — which is what
// makes the budgeted evict-then-observe steady state in internal/gp
// allocation-free.
func (c *Cholesky) Extend(row []float64, diag float64) error {
	n := c.n
	if len(row) != n {
		panic(fmt.Sprintf("linalg: Extend row length %d, want %d", len(row), n))
	}
	base := len(c.l)
	c.l = append(c.l, row...)
	w := c.l[base:]
	off := 0
	for j := 0; j < n; j++ {
		lj := c.l[off : off+j+1]
		var s float64
		for k, v := range lj[:j] {
			s += w[k] * v
		}
		w[j] = (w[j] - s) / lj[j] // w[j] still holds row[j]
		off += j + 1
	}
	var d float64
	for _, v := range w {
		d += v * v
	}
	d = diag - d
	if d <= 0 || math.IsNaN(d) {
		c.l = c.l[:base]
		return ErrNotSPD
	}
	c.l = append(c.l, math.Sqrt(d))
	c.a = append(c.a, row...)
	c.a = append(c.a, diag)
	c.n++
	return nil
}

// Downdate removes observation i from the factor: it shrinks the factor
// of the n×n matrix A to the factor of the (n−1)×(n−1) matrix A with row
// and column i deleted, in place and allocation-free. It is the removal
// dual of Extend, and like Extend it is bit-identical to refactorizing
// the retained submatrix from scratch: columns j < i of L are unchanged
// (the column-j recurrence reads only A entries and factor columns k < j,
// all of which survive the deletion untouched), and columns j ≥ i are
// recomputed with exactly NewCholesky's recurrence over the compacted
// copy of A that the factor retains. Cost is O((n−i)·n) — removing the
// newest row is O(1), the oldest O(n²).
//
// Downdate panics if i is out of range or if n == 1 (an empty factor is
// not representable; callers track emptiness). It returns ErrNotSPD if a
// recomputed pivot is not positive — possible only through accumulated
// rounding, since a principal submatrix of an SPD matrix is SPD — and in
// that case the receiver is left invalid and must be discarded (the
// caller refits from its retained observations).
//
//lint:hotpath
func (c *Cholesky) Downdate(i int) error {
	n := c.n
	if i < 0 || i >= n {
		//lint:allow hotpath cold panic path: formatting happens only on caller misuse, never in steady state
		panic(fmt.Sprintf("linalg: Downdate index %d out of range [0,%d)", i, n))
	}
	if n == 1 {
		panic("linalg: Downdate would empty the factor; drop the Cholesky instead")
	}
	c.a = deletePacked(c.a, n, i)
	c.l = deletePacked(c.l, n, i)
	c.n = n - 1
	// Column-major order guarantees every factor entry the recurrence reads
	// (columns k < j) is already final: k < i carried over, k ∈ [i, j)
	// recomputed on an earlier pass.
	return factorColumns(c.l, c.a, i, n-1)
}

// deletePacked deletes row i and column i of the packed n×n lower
// triangle p in place and returns the packed (n−1)×(n−1) result on the
// same backing array. Rows before i hold no column ≥ i and stay put; each
// later row shifts left, and every destination index is at or before its
// source, so the forward scan never clobbers an unmoved entry.
func deletePacked(p []float64, n, i int) []float64 {
	dst := tri(i)
	for r := i + 1; r < n; r++ {
		row := p[tri(r) : tri(r)+r+1]
		dst += copy(p[dst:], row[:i])
		dst += copy(p[dst:], row[i+1:])
	}
	return p[:tri(n-1)]
}

// SolveVec solves A·x = b for x, where A is the factorized matrix.
// It panics if len(b) != n.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.n), b)
}

// SolveVecInto solves A·x = b into dst and returns dst, allocating
// nothing. dst may alias b. It panics if len(dst) or len(b) != n.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	c.forwardSolveInto(dst, b)
	c.backwardSolveInto(dst, dst)
	return dst
}

// forwardSolveInto solves L·y = b into y. y may alias b: y[i] reads b[i]
// before writing index i and otherwise only touches already-computed
// entries.
func (c *Cholesky) forwardSolveInto(y, b []float64) {
	n := c.n
	if len(b) != n || len(y) != n {
		panic("linalg: SolveVec dimension mismatch")
	}
	off := 0
	for i := 0; i < n; i++ {
		li := c.l[off : off+i+1]
		s := b[i]
		for k, v := range li[:i] {
			s -= v * y[k]
		}
		y[i] = s / li[i]
		off += i + 1
	}
}

// backwardSolveInto solves Lᵀ·x = y into x. x may alias y: index i is
// read from y before being written and later entries are already final.
func (c *Cholesky) backwardSolveInto(x, y []float64) {
	n := c.n
	if len(y) != n || len(x) != n {
		panic("linalg: SolveVec dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		// L[k][i] for k = i+1, i+2, …: row k starts k+1 entries after row k−1.
		idx := tri(i+1) + i
		for k := i + 1; k < n; k++ {
			s -= c.l[idx] * x[k]
			idx += k + 1
		}
		x[i] = s / c.l[tri(i)+i]
	}
}

// SolveLowerVec solves L·y = b (forward substitution only). The GP variance
// computation needs this half-solve: σ²(x) = k(x,x) − ‖L⁻¹ k_t(x)‖².
func (c *Cholesky) SolveLowerVec(b []float64) []float64 {
	return c.SolveLowerVecInto(make([]float64, c.n), b)
}

// SolveLowerVecInto solves L·y = b into dst and returns dst, allocating
// nothing. dst may alias b.
func (c *Cholesky) SolveLowerVecInto(dst, b []float64) []float64 {
	c.forwardSolveInto(dst, b)
	return dst
}

// LogDet returns log det(A) = 2·Σ log L_ii, used by the GP log-marginal
// likelihood.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[tri(i)+i])
	}
	return 2 * s
}
