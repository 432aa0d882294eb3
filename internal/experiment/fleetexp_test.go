package experiment

import (
	"strings"
	"testing"

	"dragster/internal/fleet"
	"dragster/internal/workload"
)

// TestFleetBenchDualPriceWins pins the PR's headline claim: on the
// canonical mixed fleet the dual-price arbiter spends strictly less than
// the static equal split while accumulating no more regret. The seed and
// horizon match the EXPERIMENTS.md table.
func TestFleetBenchDualPriceWins(t *testing.T) {
	r, err := FleetBench(20, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	dual, equal := r.DualPrice, r.EqualSplit
	if dual.AggregateCost >= equal.AggregateCost {
		t.Errorf("dual-price cost %.4f not below equal-split %.4f",
			dual.AggregateCost, equal.AggregateCost)
	}
	if dual.AggregateRegret > equal.AggregateRegret {
		t.Errorf("dual-price regret %.0f exceeds equal-split %.0f",
			dual.AggregateRegret, equal.AggregateRegret)
	}
	for _, s := range []*FleetScore{dual, equal} {
		if s.BudgetOverruns != 0 {
			t.Errorf("%s: %d budget overruns", s.Arbitration, s.BudgetOverruns)
		}
		if len(s.Jobs) != 3 {
			t.Errorf("%s: %d jobs scored", s.Arbitration, len(s.Jobs))
		}
	}
	// The light tenants are never starved into regret by the ratchet.
	for _, j := range dual.Jobs {
		if j.Name != "hot" && j.Regret > equal.AggregateRegret/10 {
			t.Errorf("light tenant %s regret %.0f under dual-price", j.Name, j.Regret)
		}
	}
}

func TestRenderFleetBench(t *testing.T) {
	r, err := FleetBench(6, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFleetBench(&sb, r)
	out := sb.String()
	for _, want := range []string{"dual-price", "equal-split", "cost saving", "regret ratio", "hot", "light-a"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestRunFleetScenarioScoresDynamicJobs exercises the scoring path when
// a tenant has no workload spec handle (dynamically submitted): its
// rounds are skipped rather than scored against a nil optimum.
func TestRunFleetScenarioScoresDynamicJobs(t *testing.T) {
	g, err := workload.Group()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(g.LowRates)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.Config{
		Jobs:            []fleet.JobSpec{{Name: "solo", Workload: g, Rates: rates}},
		Slots:           3,
		SlotSeconds:     60,
		Seed:            5,
		TotalTaskBudget: 6,
	}
	score, err := RunFleetScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(score.Jobs) != 1 || score.Jobs[0].Rounds != 3 {
		t.Fatalf("scenario score: %+v", score)
	}
	if score.AggregateCost <= 0 {
		t.Errorf("aggregate cost %v", score.AggregateCost)
	}
}
