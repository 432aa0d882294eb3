package regret

import (
	"math"
	"testing"
)

func TestAccountantBasics(t *testing.T) {
	a := NewAccountant()
	if len(a.regretSer) != 0 || a.Regret() != 0 || a.Fit() != 0 {
		t.Error("fresh accountant not zero")
	}
	if err := a.Record(100, 80, []float64{5, -2}); err != nil {
		t.Fatal(err)
	}
	if err := a.Record(100, 95, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if len(a.regretSer) != 2 {
		t.Errorf("T = %d", len(a.regretSer))
	}
	if a.Regret() != 25 {
		t.Errorf("Regret = %v, want 25", a.Regret())
	}
	if a.Fit() != 4 {
		t.Errorf("Fit = %v, want 4", a.Fit())
	}
	rs := a.RegretSeries()
	if rs[0] != 20 || rs[1] != 25 {
		t.Errorf("RegretSeries = %v", rs)
	}
	// Series are copies.
	rs[0] = 999
	if a.RegretSeries()[0] == 999 {
		t.Error("RegretSeries leaked internal storage")
	}
}

func TestRecordRejectsNaN(t *testing.T) {
	a := NewAccountant()
	if err := a.Record(math.NaN(), 1, nil); err == nil {
		t.Error("NaN optimal accepted")
	}
	if err := a.Record(1, 1, []float64{math.NaN()}); err == nil {
		t.Error("NaN violation accepted")
	}
}

func TestAverageSeries(t *testing.T) {
	avg := AverageSeries([]float64{10, 30, 30})
	want := []float64{10, 15, 10}
	for i := range want {
		if avg[i] != want[i] {
			t.Errorf("AverageSeries = %v, want %v", avg, want)
		}
	}
	if len(AverageSeries(nil)) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestSublinearityRatio(t *testing.T) {
	// Sub-linear (√t) growth: ratio clearly below 1.
	var sqrtSeries []float64
	for i := 1; i <= 64; i++ {
		sqrtSeries = append(sqrtSeries, math.Sqrt(float64(i)))
	}
	r, err := SublinearityRatio(sqrtSeries)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0.85 {
		t.Errorf("sqrt series ratio = %v, want < 0.85", r)
	}
	// Linear growth: ratio ≈ 1.
	var linSeries []float64
	for i := 1; i <= 64; i++ {
		linSeries = append(linSeries, float64(3*i))
	}
	r, err = SublinearityRatio(linSeries)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 || r > 1.05 {
		t.Errorf("linear series ratio = %v, want ≈1", r)
	}
	if _, err := SublinearityRatio([]float64{1, 2}); err == nil {
		t.Error("short series accepted")
	}
	// Zero early average returns 0 rather than dividing by zero.
	zero := make([]float64, 16)
	r, err = SublinearityRatio(zero)
	if err != nil || r != 0 {
		t.Errorf("zero series ratio = %v err=%v", r, err)
	}
}

func defaultParams(tt int) BoundParams {
	return BoundParams{
		T: tt, M: 2, D: 1, NCandidates: 10,
		H: 200000, G: 1, Epsilon: 5000, SigmaNoise: 1500, Delta: 2,
		VStar: 1e5,
	}
}

func TestBoundsGrowSublinearly(t *testing.T) {
	// The Theorem 1 envelopes must grow slower than T: bound(4T)/bound(T)
	// well under 4.
	fit1 := FitBound(defaultParams(250))
	fit4 := FitBound(defaultParams(1000))
	if fit1 <= 0 || fit4 <= 0 {
		t.Fatalf("non-positive bounds: %v %v", fit1, fit4)
	}
	if ratio := fit4 / fit1; ratio >= 4 {
		t.Errorf("FitBound ratio = %v, want < 4 (sub-linear)", ratio)
	}
	reg1 := RegretBound(defaultParams(250), fit1)
	reg4 := RegretBound(defaultParams(1000), fit4)
	if reg1 <= 0 || reg4 <= 0 {
		t.Fatalf("non-positive regret bounds: %v %v", reg1, reg4)
	}
	if ratio := reg4 / reg1; ratio >= 4 {
		t.Errorf("RegretBound ratio = %v, want < 4", ratio)
	}
}

func TestBoundsMonotoneInHorizonAndOperators(t *testing.T) {
	p := defaultParams(100)
	pBig := p
	pBig.T = 400
	if FitBound(pBig) <= FitBound(p) {
		t.Error("FitBound must grow with T")
	}
	pMoreOps := p
	pMoreOps.M = 6
	if FitBound(pMoreOps) <= FitBound(p) {
		t.Error("FitBound must grow with M")
	}
}
