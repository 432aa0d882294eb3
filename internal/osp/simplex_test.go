package osp

import (
	"math"
	"testing"
)

// solveLP fills a simplex with max c·x s.t. A·x ≤ b, x ≥ 0 and solves it.
func solveLP(t *testing.T, a [][]float64, b, c []float64) (x []float64, value float64, feasible bool, err error) {
	t.Helper()
	var s simplex
	s.reset(len(b), len(c))
	for i := range a {
		copy(s.row(i), a[i])
		s.setRHS(i, b[i])
	}
	for j, v := range c {
		s.setObjective(j, v)
	}
	if feasible, err = s.solve(); err != nil || !feasible {
		return nil, 0, feasible, err
	}
	x = make([]float64, len(c))
	s.primal(x)
	return x, s.value(), true, nil
}

// TestSimplexTable: small programs with known optima, including ones the
// origin does not satisfy (phase one), equality pairs, degenerate
// vertices, an infeasible and an unbounded program.
func TestSimplexTable(t *testing.T) {
	for _, c := range []struct {
		name     string
		a        [][]float64
		b, c     []float64
		x        []float64
		value    float64
		feasible bool
		err      bool
	}{
		{name: "origin-feasible", a: [][]float64{{1, 2}, {3, 1}}, b: []float64{4, 6}, c: []float64{1, 1}, x: []float64{1.6, 1.2}, value: 2.8, feasible: true},
		{name: "phase-one", a: [][]float64{{1, 2}, {3, 1}, {-1, -1}}, b: []float64{4, 6, -1}, c: []float64{-2, -1}, x: []float64{0, 1}, value: -1, feasible: true},
		{name: "equality-pair", a: [][]float64{{1, 1}, {-1, -1}}, b: []float64{1, -1}, c: []float64{1, -1}, x: []float64{1, 0}, value: 1, feasible: true},
		{name: "degenerate", a: [][]float64{{1, -1}, {0, 1}, {1, 1}, {1, 0}}, b: []float64{0, 1, 2, 1}, c: []float64{1, 0}, x: []float64{1, 1}, value: 1, feasible: true},
		{name: "infeasible", a: [][]float64{{1}, {-1}}, b: []float64{1, -2}, c: []float64{1}},
		{name: "unbounded", a: [][]float64{{-1}}, b: []float64{-1}, c: []float64{1}, err: true},
	} {
		x, value, feasible, err := solveLP(t, c.a, c.b, c.c)
		if (err != nil) != c.err || feasible != c.feasible {
			t.Errorf("%s: feasible = %v, err = %v", c.name, feasible, err)
			continue
		}
		if !feasible {
			continue
		}
		if math.Abs(value-c.value) > 1e-12 {
			t.Errorf("%s: value %v, want %v", c.name, value, c.value)
		}
		for j := range x {
			if math.Abs(x[j]-c.x[j]) > 1e-12 {
				t.Errorf("%s: x = %v, want %v", c.name, x, c.x)
				break
			}
		}
	}
}
