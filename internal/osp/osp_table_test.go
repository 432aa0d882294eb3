package osp

import (
	"math"
	"testing"

	"dragster/internal/dag"
)

// singleOpChain builds the smallest legal job: source → work(sel 1) → sink.
func singleOpChain(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("source")
	op := b.Operator("work")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, op, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSingleOperatorJobs runs both methods on a one-operator graph across
// a spread of offered loads: the degenerate M=1 case must still produce a
// one-element target inside [0, YMax], and the saddle-point floor must
// cover demand·headroom whenever YMax allows it.
func TestSingleOperatorJobs(t *testing.T) {
	cases := []struct {
		name   string
		method Method
		rate   float64
	}{
		{"saddle/idle", SaddlePoint, 0},
		{"saddle/light", SaddlePoint, 50},
		{"saddle/heavy", SaddlePoint, 800},
		{"saddle/over-ymax", SaddlePoint, 5000},
		{"ogd/light", GradientDescent, 50},
		{"ogd/heavy", GradientDescent, 800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := singleOpChain(t)
			o, err := New(g, Config{Method: tc.method, YMax: 1000})
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < 5; slot++ {
				y, err := o.Step([]float64{tc.rate})
				if err != nil {
					t.Fatal(err)
				}
				if len(y) != 1 {
					t.Fatalf("got %d targets for single-operator graph, want 1", len(y))
				}
				if y[0] < 0 || y[0] > 1000 {
					t.Fatalf("slot %d: target %g outside [0, YMax]", slot, y[0])
				}
			}
			if tc.method == SaddlePoint {
				y, err := o.Step([]float64{tc.rate})
				if err != nil {
					t.Fatal(err)
				}
				need := math.Min(tc.rate*1.05, 1000)
				if y[0] < need-1e-6 {
					t.Errorf("converged target %g below demand floor %g", y[0], need)
				}
			}
		})
	}
}

// TestOGDStepSizeEdgeCases pins the two extremes of the Eq. 16 step size
// η = YMax/10: a tiny η may move the iterate at most η per slot, and a
// huge η must be absorbed by the [0, YMax] projection rather than
// overshoot below zero.
func TestOGDStepSizeEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ymax float64 // η = ymax/10
	}{
		{"tiny-eta", 1e-5},
		{"unit-eta", 10},
		// The warm start YMax/4 sits far above the demand, so the economy
		// slope drives the iterate into the box floor within four steps.
		{"huge-eta", 1e10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := twoOpChain(t)
			o, err := New(g, Config{Method: GradientDescent, YMax: tc.ymax})
			if err != nil {
				t.Fatal(err)
			}
			// The normalized step length is exactly η before projection,
			// and projection only shrinks it.
			maxMove := tc.ymax / 10 * (1 + 1e-9)
			prev := []float64{tc.ymax / 4, tc.ymax / 4} // the neutral warm start
			for slot := 0; slot < 4; slot++ {
				y, err := o.Step([]float64{300})
				if err != nil {
					t.Fatal(err)
				}
				for i := range y {
					if y[i] < 0 || y[i] > tc.ymax {
						t.Fatalf("slot %d: y[%d] = %g escapes [0, YMax]", slot, i, y[i])
					}
					if move := math.Abs(y[i] - prev[i]); move > maxMove {
						t.Fatalf("slot %d: op %d moved %g, step bound %g", slot, i, move, maxMove)
					}
				}
				prev = y
			}
		})
	}
}

// TestDualUpdateClampTable drives ObserveViolations through its edge
// cases as a table: the normalized step is clamped to ±violationClamp,
// multipliers never go negative, γ_t falls as 1/√t, and non-finite
// violations are rejected without corrupting state.
func TestDualUpdateClampTable(t *testing.T) {
	const (
		ymax  = 1000.0
		gamma = gammaScale
		clamp = violationClamp
	)
	cases := []struct {
		name       string
		violations [][]float64 // one row per ObserveViolations call
		wantErr    bool
		wantLambda []float64 // checked when wantErr is false
	}{
		{
			name:       "huge-violation-clamps",
			violations: [][]float64{{1e12, 1e12}},
			wantLambda: []float64{gamma * clamp, gamma * clamp},
		},
		{
			name:       "huge-slack-floors-at-zero",
			violations: [][]float64{{-1e12, -1e12}},
			wantLambda: []float64{0, 0},
		},
		{
			name: "small-violation-linear",
			// l/scale = 0.05 is inside the clamp, so the step is exact.
			violations: [][]float64{{0.05 * ymax, 0}},
			wantLambda: []float64{gamma * 0.05, 0},
		},
		{
			name: "gamma-decays-with-slots",
			// Two maximal steps: γ_1·clamp + γ_2·clamp with γ_t = γ/√t.
			violations: [][]float64{{1e12, 0}, {1e12, 0}},
			wantLambda: []float64{gamma*clamp + gamma*clamp/math.Sqrt(2), 0},
		},
		{
			name:       "nan-rejected",
			violations: [][]float64{{math.NaN(), 0}},
			wantErr:    true,
		},
		{
			name:       "inf-rejected",
			violations: [][]float64{{0, math.Inf(1)}},
			wantErr:    true,
		},
		{
			name:       "length-mismatch-rejected",
			violations: [][]float64{{1}},
			wantErr:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := twoOpChain(t)
			o, err := New(g, Config{YMax: ymax})
			if err != nil {
				t.Fatal(err)
			}
			var lastErr error
			for _, l := range tc.violations {
				if _, err := o.Step([]float64{100}); err != nil {
					t.Fatal(err)
				}
				lastErr = o.ObserveViolations(l)
			}
			if tc.wantErr {
				if lastErr == nil {
					t.Fatal("invalid violations accepted")
				}
				return
			}
			if lastErr != nil {
				t.Fatal(lastErr)
			}
			got := o.Duals()
			for i, want := range tc.wantLambda {
				if math.Abs(got[i]-want) > 1e-12 {
					t.Errorf("λ[%d] = %g, want %g", i, got[i], want)
				}
			}
		})
	}
}

// TestObserveViolationsBeforeFirstStep pins the t=0 guard: a dual update
// arriving before any Step uses γ_1, not a division by √0.
func TestObserveViolationsBeforeFirstStep(t *testing.T) {
	g := twoOpChain(t)
	o, err := New(g, Config{YMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ObserveViolations([]float64{1e12, 0}); err != nil {
		t.Fatal(err)
	}
	got := o.Duals()
	want := gammaScale * violationClamp // γ_1 · clamp
	if math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("λ[0] = %g, want %g (γ_1 step)", got[0], want)
	}
	if math.IsInf(got[0], 0) || math.IsNaN(got[0]) {
		t.Error("pre-Step dual update produced non-finite multiplier")
	}
}

// TestConfigValidationTable covers Config validation and the ranges the
// fixed update constants must keep.
func TestConfigValidationTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{YMax: 100}, true},
		{"explicit-valid", Config{Method: GradientDescent, YMax: 100}, true},
		// YMax is the dual update's violation scale.
		{"negative-violation-scale", Config{YMax: -1}, false},
		{"nan-ymax", Config{YMax: math.NaN()}, false},
		{"inf-ymax", Config{YMax: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := twoOpChain(t)
			_, err := New(g, tc.cfg)
			if tc.ok && err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid config accepted")
			}
		})
	}

	// A huge slack after a huge violation moves λ down by exactly one
	// clamped step: the clamp is positive and symmetric.
	t.Run("negative-violation-clamp", func(t *testing.T) {
		o, err := New(twoOpChain(t), Config{YMax: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []float64{1e12, -1e12} {
			if err := o.ObserveViolations([]float64{l, 0}); err != nil {
				t.Fatal(err)
			}
		}
		if got := o.Duals()[0]; got != 0 {
			t.Errorf("λ after equal clamped steps up and down = %g, want 0", got)
		}
		if violationClamp <= 0 {
			t.Errorf("violationClamp = %g, want > 0", violationClamp)
		}
	})
	// economyWeight < 1 keeps the throughput slope dominant: an
	// under-provisioned OGD iterate must still grow toward the demand.
	t.Run("economy-weight-one", func(t *testing.T) {
		o, err := New(singleOpChain(t), Config{Method: GradientDescent, YMax: 1000})
		if err != nil {
			t.Fatal(err)
		}
		y, err := o.Step([]float64{800}) // demand 800, warm start 250
		if err != nil {
			t.Fatal(err)
		}
		if y[0] <= 250 {
			t.Errorf("under-provisioned OGD target fell to %g from 250", y[0])
		}
	})
	// economyWeight > 0 is what scales an over-provisioned OGD iterate
	// down when demand is covered.
	t.Run("negative-economy-weight", func(t *testing.T) {
		o, err := New(singleOpChain(t), Config{Method: GradientDescent, YMax: 1000})
		if err != nil {
			t.Fatal(err)
		}
		y, err := o.Step([]float64{50}) // demand 50, warm start 250
		if err != nil {
			t.Fatal(err)
		}
		if y[0] >= 250 {
			t.Errorf("over-provisioned OGD target rose to %g from 250", y[0])
		}
	})
}

// TestBottlenecksTable exercises the relative-deviation selector at its
// edges: the 1e-9 scale floor for zero realized capacity, the strict >tol
// comparison, and both deviation directions.
func TestBottlenecksTable(t *testing.T) {
	cases := []struct {
		name     string
		target   []float64
		realized []float64
		tol      float64
		want     []int
		wantErr  bool
	}{
		{
			name:     "zero-realized-uses-scale-floor",
			target:   []float64{1, 0},
			realized: []float64{0, 0},
			tol:      0.1,
			want:     []int{0}, // |1−0|/1e-9 is enormous; op 1 deviates 0
		},
		{
			name:     "exact-tolerance-excluded",
			target:   []float64{110, 100},
			realized: []float64{100, 100},
			tol:      0.1,
			want:     nil, // deviation exactly 0.1 is not > tol
		},
		{
			name:     "both-directions-qualify",
			target:   []float64{150, 50},
			realized: []float64{100, 100},
			tol:      0.2,
			want:     []int{0, 1},
		},
		{
			name:     "zero-tolerance-flags-any-drift",
			target:   []float64{100 + 1e-6, 100},
			realized: []float64{100, 100},
			tol:      0,
			want:     []int{0},
		},
		{
			name:     "length-mismatch",
			target:   []float64{1},
			realized: []float64{1, 2},
			tol:      0.1,
			wantErr:  true,
		},
		{
			name:     "negative-tolerance",
			target:   []float64{1},
			realized: []float64{1},
			tol:      -0.1,
			wantErr:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Bottlenecks(tc.target, tc.realized, tc.tol)
			if tc.wantErr {
				if err == nil {
					t.Fatal("invalid input accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}
