package osp

import (
	"errors"
	"math"
)

// simplex is a dense dictionary for the linear program
//
//	maximize c·x  subject to  A·x ≤ b, x ≥ 0,
//
// in the layout of the classic compact two-phase solver: rows 0..m−1 hold
// the constraints, row m the objective (negated), row m+1 the phase-one
// objective; column n is the phase-one artificial and column n+1 the
// right-hand side. Both phases pivot by Bland's rule (entering and leaving
// variable by smallest index), so no degenerate vertex can cycle and the
// vertex reached is a function of the input alone. The zero value is
// ready for reset.
type simplex struct {
	m, n     int
	d        []float64 // (m+2)×(n+2), row-major
	basis    []int     // row -> variable: j < n structural, n+i row i's slack, −1 the artificial
	nonbasis []int     // column -> variable
}

// simplexEps is the pivot and feasibility tolerance. Callers scale their
// programs so that coefficients and solutions are O(1).
const simplexEps = 1e-9

var errPivotLimit = errors.New("osp: simplex exceeded its pivot limit")

// reset sizes the dictionary for m constraints over n variables, with
// every coefficient zero. Fill it through row, setRHS and setObjective.
func (s *simplex) reset(m, n int) {
	s.m, s.n = m, n
	w := n + 2
	size := (m + 2) * w
	if cap(s.d) < size {
		s.d = make([]float64, size)
	}
	s.d = s.d[:size]
	clear(s.d)
	if cap(s.basis) < m {
		s.basis = make([]int, m)
	}
	s.basis = s.basis[:m]
	if cap(s.nonbasis) < n+1 {
		s.nonbasis = make([]int, n+1)
	}
	s.nonbasis = s.nonbasis[:n+1]
	for i := range s.basis {
		s.basis[i] = n + i
		s.d[i*w+n] = -1
	}
	for j := 0; j < n; j++ {
		s.nonbasis[j] = j
	}
	s.nonbasis[n] = -1
	s.d[(m+1)*w+n] = 1
}

// row returns constraint i's n coefficients, to be filled before solve.
func (s *simplex) row(i int) []float64 {
	w := s.n + 2
	return s.d[i*w : i*w+s.n]
}

// setRHS sets constraint i's right-hand side b_i.
func (s *simplex) setRHS(i int, b float64) { s.d[i*(s.n+2)+s.n+1] = b }

// setObjective sets the objective coefficient c_j.
func (s *simplex) setObjective(j int, c float64) { s.d[s.m*(s.n+2)+j] = -c }

// value returns the objective at the current basic solution.
func (s *simplex) value() float64 { return s.d[s.m*(s.n+2)+s.n+1] }

// primal writes the current basic solution into x (length n).
func (s *simplex) primal(x []float64) {
	clear(x)
	w := s.n + 2
	for i, v := range s.basis {
		if v >= 0 && v < s.n {
			x[v] = s.d[i*w+s.n+1]
		}
	}
}

// pivot exchanges row r's basic variable with column c's nonbasic one.
func (s *simplex) pivot(r, c int) {
	w := s.n + 2
	inv := 1 / s.d[r*w+c]
	pr := s.d[r*w : r*w+w]
	for i := 0; i < s.m+2; i++ {
		if i == r {
			continue
		}
		row := s.d[i*w : i*w+w]
		f := row[c] * inv
		if f == 0 {
			continue
		}
		for j, v := range pr {
			row[j] -= v * f
		}
		row[c] = -f
	}
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = inv
	s.basis[r], s.nonbasis[c] = s.nonbasis[c], s.basis[r]
}

// run pivots on objective row x until no column improves it. It reports
// false when the program is unbounded along the entering column.
func (s *simplex) run(x int) (bool, error) {
	w := s.n + 2
	obj := s.d[x*w : x*w+w]
	for iter := 0; iter < 50*(s.m+s.n+2); iter++ {
		c := -1
		for j := 0; j <= s.n; j++ {
			if x == s.m && s.nonbasis[j] == -1 {
				continue
			}
			if obj[j] < -simplexEps && (c < 0 || s.nonbasis[j] < s.nonbasis[c]) {
				c = j
			}
		}
		if c < 0 {
			return true, nil
		}
		r := -1
		var best float64
		for i := 0; i < s.m; i++ {
			a := s.d[i*w+c]
			if a <= simplexEps {
				continue
			}
			ratio := s.d[i*w+s.n+1] / a
			if r < 0 || ratio < best || ratio == best && s.basis[i] < s.basis[r] {
				r, best = i, ratio
			}
		}
		if r < 0 {
			return false, nil
		}
		s.pivot(r, c)
	}
	return false, errPivotLimit
}

// solve optimizes the filled dictionary. It reports false when the
// constraints admit no x ≥ 0; an unbounded program is an error, since the
// caller's programs are bounded.
func (s *simplex) solve() (bool, error) {
	w := s.n + 2
	r := 0
	for i := 1; i < s.m; i++ {
		if s.d[i*w+s.n+1] < s.d[r*w+s.n+1] {
			r = i
		}
	}
	if s.m > 0 && s.d[r*w+s.n+1] < -simplexEps {
		// Phase one: enter the artificial on the most violated row, then
		// minimize it.
		s.pivot(r, s.n)
		if ok, err := s.run(s.m + 1); err != nil || !ok {
			return false, err
		}
		if s.d[(s.m+1)*w+s.n+1] < -simplexEps {
			return false, nil
		}
		for i, v := range s.basis {
			if v != -1 {
				continue
			}
			c := -1
			for j := 0; j <= s.n; j++ {
				if a := s.d[i*w+j]; a > simplexEps || a < -simplexEps {
					if c < 0 || math.Abs(a) > math.Abs(s.d[i*w+c]) {
						c = j
					}
				}
			}
			if c >= 0 {
				s.pivot(i, c)
			}
		}
	}
	ok, err := s.run(s.m)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, errors.New("osp: unbounded linear program")
	}
	return true, nil
}
