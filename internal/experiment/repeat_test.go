package experiment

import (
	"math"
	"strings"
	"testing"

	"dragster/internal/workload"
)

func TestRepeatAggregates(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Repeat(Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       12,
		SlotSeconds: 60,
	}, DragsterSaddle(), Seeds(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Runs) != 4 {
		t.Fatalf("runs = %d", len(rr.Runs))
	}
	if rr.ConvergenceMinutes.N+rr.Unconverged != 4 {
		t.Errorf("convergence accounting: %d + %d ≠ 4", rr.ConvergenceMinutes.N, rr.Unconverged)
	}
	if rr.ConvergenceMinutes.N == 0 {
		t.Fatal("no seed converged")
	}
	cost := rr.CostPerBillion
	if cost.Mean <= 0 {
		t.Errorf("aggregates: %+v", rr)
	}
	if cost.Min > cost.Max {
		t.Error("min above max")
	}
	if cost.Std < 0 || math.IsNaN(cost.Std) {
		t.Errorf("std = %v", cost.Std)
	}
	// Seeds must actually vary the runs (cloud noise differs).
	if cost.Min == cost.Max {
		t.Error("all seeds produced identical costs — noise not applied?")
	}
	if !strings.Contains(cost.String(), "±") {
		t.Errorf("Aggregate.String = %q", cost.String())
	}
}

func TestRepeatValidation(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repeat(Scenario{Spec: spec, Rates: rates, Slots: 1}, DragsterSaddle(), nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if got := Seeds(3); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Seeds(3) = %v", got)
	}
	zero := aggregate(nil)
	if zero.N != 0 || zero.Mean != 0 {
		t.Errorf("empty aggregate = %+v", zero)
	}
}
