package regret

import (
	"math"
	"testing"
)

// TestRegretMonotoneUnderConstantReward is the satellite invariant of the
// observability PR: when every slot pays the same achieved reward against
// a fixed optimum, the per-slot regret increment is a nonnegative
// constant, so the cumulative series must be non-decreasing and exactly
// linear, and its running average must be flat.
func TestRegretMonotoneUnderConstantReward(t *testing.T) {
	cases := []struct {
		name               string
		optimal, achieved  float64
		violations         []float64
		slots              int
		wantSlope, wantFit float64
	}{
		{"positive-gap", 100, 80, []float64{5, 0}, 16, 20, 5},
		{"zero-gap", 100, 100, []float64{0, 0}, 16, 0, 0},
		{"negative-gap-overachieves", 100, 110, nil, 16, -10, 0},
		{"single-operator", 50, 45, []float64{2}, 12, 5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAccountant()
			for s := 0; s < tc.slots; s++ {
				if err := a.Record(tc.optimal, tc.achieved, tc.violations); err != nil {
					t.Fatal(err)
				}
				if want := float64(s+1) * tc.wantFit; math.Abs(a.Fit()-want) > 1e-9 {
					t.Fatalf("fit after slot %d = %g, want %g", s, a.Fit(), want)
				}
			}
			if len(a.regretSer) != tc.slots {
				t.Fatalf("T() = %d, want %d", len(a.regretSer), tc.slots)
			}
			ser := a.RegretSeries()
			for s := 1; s < len(ser); s++ {
				if tc.wantSlope >= 0 && ser[s] < ser[s-1]-1e-12 {
					t.Fatalf("cumulative regret decreased at slot %d: %g → %g", s, ser[s-1], ser[s])
				}
				inc := ser[s] - ser[s-1]
				if math.Abs(inc-tc.wantSlope) > 1e-9 {
					t.Fatalf("slot %d increment %g, want constant %g", s, inc, tc.wantSlope)
				}
			}
			// Constant reward ⇒ flat running average equal to the slope.
			for s, avg := range AverageSeries(ser) {
				if math.Abs(avg-tc.wantSlope) > 1e-9 {
					t.Fatalf("average regret at slot %d = %g, want %g", s, avg, tc.wantSlope)
				}
			}
			if math.Abs(a.Regret()-float64(tc.slots)*tc.wantSlope) > 1e-9 {
				t.Errorf("Regret() = %g, want %g", a.Regret(), float64(tc.slots)*tc.wantSlope)
			}
		})
	}
}

// TestSublinearityRatioConstantReward: constant per-slot regret is the
// canonical *linear* growth, so the ratio must sit at ≈1 — the detector
// must not report sublinearity for it.
func TestSublinearityRatioConstantReward(t *testing.T) {
	a := NewAccountant()
	for s := 0; s < 32; s++ {
		if err := a.Record(10, 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	ratio, err := SublinearityRatio(a.RegretSeries())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-1) > 1e-9 {
		t.Errorf("linear-growth ratio = %g, want 1", ratio)
	}
}

// TestFitMonotoneUnderNonnegativeViolations: with l_i ≥ 0 every slot the
// cumulative fit can never decrease, whatever the regret does.
func TestFitMonotoneUnderNonnegativeViolations(t *testing.T) {
	a := NewAccountant()
	viols := [][]float64{{0, 0}, {3, 1}, {0, 0.5}, {7, 0}, {0, 0}}
	prev := 0.0
	for s, v := range viols {
		// Alternate over/under-achieving to decouple fit from regret.
		achieved := 100.0
		if s%2 == 0 {
			achieved = 120
		}
		if err := a.Record(100, achieved, v); err != nil {
			t.Fatal(err)
		}
		if a.Fit() < prev-1e-12 {
			t.Fatalf("cumulative fit decreased at slot %d: %g → %g", s, prev, a.Fit())
		}
		prev = a.Fit()
	}
	if want := 11.5; math.Abs(a.Fit()-want) > 1e-9 {
		t.Errorf("Fit() = %g, want %g", a.Fit(), want)
	}
}
