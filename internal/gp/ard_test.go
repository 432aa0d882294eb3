package gp

import (
	"math"
	"testing"

	"dragster/internal/stats"
)

func TestARDValidation(t *testing.T) {
	if _, err := NewARDSquaredExponential(nil, 1); err == nil {
		t.Error("empty scales accepted")
	}
	if _, err := NewARDSquaredExponential([]float64{1, -1}, 1); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := NewARDSquaredExponential([]float64{1}, 0); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestARDBasicProperties(t *testing.T) {
	k, err := NewARDSquaredExponential([]float64{2, 500}, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 1000}
	y := []float64{3, 1500}
	if k.Eval(x, y) != k.Eval(y, x) {
		t.Error("not symmetric")
	}
	if math.Abs(k.Eval(x, x)-3) > 1e-12 {
		t.Errorf("k(x,x) = %v, want 3", k.Eval(x, x))
	}
	// A 1-unit move on the short axis must decay correlation as much as a
	// 250-unit move on the long axis (ratio of length scales).
	short := k.Eval(x, []float64{2, 1000})
	long := k.Eval(x, []float64{1, 1250})
	if math.Abs(short-long) > 1e-12 {
		t.Errorf("anisotropy wrong: short-axis %v vs equivalent long-axis %v", short, long)
	}
}

func TestARDKernelDimMismatchPanics(t *testing.T) {
	k, err := NewARDSquaredExponential([]float64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	k.Eval([]float64{1}, []float64{1})
}

// TestARDBeatsIsotropicOnMixedScales is the reason the controller uses
// ARD for 2-D configuration spaces: with task counts (1..10) and CPU
// millicores (500..2000) on the same kernel, an isotropic length scale is
// dominated by the CPU axis and cannot generalize along tasks.
func TestARDBeatsIsotropicOnMixedScales(t *testing.T) {
	truth := func(tasks, cpu float64) float64 {
		return 100 * math.Pow(tasks, 0.9) * math.Pow(cpu/1000, 0.8)
	}
	train := func(r *Regressor) {
		rng := stats.NewRNG(51)
		for i := 0; i < 25; i++ {
			tasks := 1 + float64(rng.Intn(10))
			cpu := float64(500 * (1 + rng.Intn(4)))
			if err := r.Observe([]float64{tasks, cpu}, truth(tasks, cpu)+rng.Normal(0, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mae := func(r *Regressor) float64 {
		var m float64
		n := 0
		for tasks := 1; tasks <= 10; tasks++ {
			for cpu := 500; cpu <= 2000; cpu += 500 {
				mu, _, err := r.Posterior([]float64{float64(tasks), float64(cpu)})
				if err != nil {
					t.Fatal(err)
				}
				m += math.Abs(mu - truth(float64(tasks), float64(cpu)))
				n++
			}
		}
		return m / float64(n)
	}
	ard, err := NewARDSquaredExponential([]float64{2.25, 375}, 250*250)
	if err != nil {
		t.Fatal(err)
	}
	rARD := mustRegressor(t, ard, 100)
	train(rARD)
	// The isotropic kernel the 1-D controller derives from the task axis
	// (ℓ = 0.25 × task range): on 2-D inputs the CPU axis distances (≥500)
	// are hundreds of length scales, so nothing generalizes across CPU.
	iso := mustSE(t, 2.25, 250*250)
	rISO := mustRegressor(t, iso, 100)
	train(rISO)
	if mae(rARD) >= mae(rISO) {
		t.Errorf("ARD MAE %v not below isotropic MAE %v", mae(rARD), mae(rISO))
	}
}
