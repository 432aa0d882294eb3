package linalg

// dense returns L as a fresh n×n matrix (zeros above the diagonal), so
// tests can compare whole factors entry by entry.
func (c *Cholesky) dense() *Matrix {
	m := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		for j := 0; j <= i; j++ {
			m.Set(i, j, c.At(i, j))
		}
	}
	return m
}
