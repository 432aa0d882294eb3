package experiment

import (
	"strings"
	"testing"

	"dragster/internal/workload"
)

func runCapacityOnce(t *testing.T) *CapacityResult {
	t.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	r, err := RunCapacity(spec, 12, 120, 1)
	if err != nil {
		t.Fatalf("RunCapacity: %v", err)
	}
	for _, row := range r.Rows() {
		if row == nil {
			t.Fatal("missing capacity row")
		}
	}
	return r
}

// TestCapacityPlannedBeatsColdFloor pins the headline claim as an
// envelope, not exact figures: planned admission sustains the SLO
// measurably earlier, for less cumulative spend up to that point, and
// with less total regret than the cold floor learning online.
func TestCapacityPlannedBeatsColdFloor(t *testing.T) {
	r := runCapacityOnce(t)
	p, c := r.Planned, r.ColdFloor
	if p.RoundsToSLO < 0 {
		t.Fatal("planned admission never sustained the SLO")
	}
	// "never" counts as the full horizon for the comparison.
	coldSLO := c.RoundsToSLO
	if coldSLO < 0 {
		coldSLO = r.Slots
	}
	if p.RoundsToSLO >= coldSLO {
		t.Errorf("planned sustained SLO at round %d, cold floor at %d — want strictly earlier",
			p.RoundsToSLO, coldSLO)
	}
	if p.CostToSLO >= c.CostToSLO {
		t.Errorf("planned spent $%.4f to reach SLO, cold floor $%.4f — want strictly less",
			p.CostToSLO, c.CostToSLO)
	}
	if p.Regret >= c.Regret {
		t.Errorf("planned regret %.0f ≥ cold-floor regret %.0f", p.Regret, c.Regret)
	}
	if p.PlanProbes == 0 || p.ProbeCost <= 0 {
		t.Errorf("planned row missing probe evidence: %+v", p)
	}
	if c.PlanProbes != 0 || c.ProbeCost != 0 {
		t.Errorf("cold-floor row carries probe fields: %+v", c)
	}
}

// TestCapacityPlannedBeatsDaedalus: the self-adaptive baseline re-pays
// its adaptation cost at the surge, so the plan accumulates less regret.
func TestCapacityPlannedBeatsDaedalus(t *testing.T) {
	r := runCapacityOnce(t)
	if r.Planned.Regret >= r.Daedalus.Regret {
		t.Errorf("planned regret %.0f ≥ daedalus regret %.0f", r.Planned.Regret, r.Daedalus.Regret)
	}
}

func TestRenderCapacity(t *testing.T) {
	r := runCapacityOnce(t)
	var b strings.Builder
	RenderCapacity(&b, r)
	out := b.String()
	for _, want := range []string{"planned", "cold-floor", "daedalus", "probe $", "SLO"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestCapacityClaimAcrossCells pins the fraction EXPERIMENTS.md states
// for the capacity headline over its 12 cells (cmd/benchmark's 24 slots
// at slot lengths 60, 120, 300 and 600 s × seeds 1–3): planned admission
// sustains the SLO strictly earlier than the cold floor in exactly 8
// cells, failing in the four the document names, and accrues strictly
// less regret in all 12.
func TestCapacityClaimAcrossCells(t *testing.T) {
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		slotSecs int
		seed     int64
	}
	later := map[cell]bool{{60, 2}: true, {300, 2}: true, {600, 1}: true, {600, 3}: true}
	earlier := 0
	for _, slotSecs := range []int{60, 120, 300, 600} {
		for seed := int64(1); seed <= 3; seed++ {
			r, err := RunCapacity(spec, 24, slotSecs, seed)
			if err != nil {
				t.Fatalf("%d s seed %d: %v", slotSecs, seed, err)
			}
			p, c := r.Planned, r.ColdFloor
			// "never" counts as the full horizon, as in the envelope test.
			planSLO, coldSLO := p.RoundsToSLO, c.RoundsToSLO
			if planSLO < 0 {
				planSLO = r.Slots
			}
			if coldSLO < 0 {
				coldSLO = r.Slots
			}
			if planSLO < coldSLO {
				earlier++
			}
			if want := !later[cell{slotSecs, seed}]; (planSLO < coldSLO) != want {
				t.Errorf("%d s seed %d: planned SLO round %d, cold floor %d; earlier = %v, want %v",
					slotSecs, seed, p.RoundsToSLO, c.RoundsToSLO, !want, want)
			}
			if p.Regret >= c.Regret {
				t.Errorf("%d s seed %d: planned regret %.0f ≥ cold-floor regret %.0f", slotSecs, seed, p.Regret, c.Regret)
			}
		}
	}
	if earlier != 8 {
		t.Errorf("planned sustained the SLO earlier in %d of 12 cells, EXPERIMENTS.md states 8", earlier)
	}
}
