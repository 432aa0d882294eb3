package experiment

import (
	"fmt"
	"io"
	"slices"

	"dragster/internal/fleet"
	"dragster/internal/workload"
)

// Capacity experiment: does planning before admission beat learning
// after it? One tenant runs the same trace-replay traffic — a diurnal
// sinusoid with a Black-Friday surge on top — three ways:
//
//   - planned: fleet admission with PlanOnAdmit. The StreamBed-style
//     planner probes the scaled-down simulator, fits capacity curves,
//     and the tenant is admitted at the plan's task floors with its GPs
//     warm-started from the probe records.
//   - cold-floor: the same fleet, same seed, but admission grants the
//     one-task-per-operator floor and the controller learns online.
//   - daedalus: the self-adaptive baseline (internal/baseline) that
//     steers utilization each slot but keeps no capacity model.
//
// Scoring is per-round against the ground-truth optimum for that
// round's offered rates. A round meets the SLO when its steady
// throughput reaches capacitySLOFraction of the optimum; a run's
// RoundsToSLO is the first round from which the SLO holds for the rest
// of the horizon — a surge the policy has to re-adapt to pushes the
// sustained point later, which is exactly the cost of keeping no plan.

// capacitySLOFraction is the per-round bar: steady throughput ≥ this
// fraction of the ground-truth optimal throughput at the round's rates.
// Slightly below the planner's own 0.95 feasibility bar so the comparison
// measures adaptation lag, not rounding at the feasibility boundary.
const capacitySLOFraction = 0.9

// CapacityRow is one admission mode's scored run.
type CapacityRow struct {
	Mode string
	// RoundsToSLO is the first round from which every remaining round
	// meets the SLO (-1 = never sustained within the horizon).
	RoundsToSLO int
	// CostToSLO is the cumulative attributed spend up to and including
	// the sustaining round (total spend when never sustained).
	CostToSLO float64
	// Cost is the run's total attributed spend; Regret the Σ-rounds
	// shortfall against the per-round optimum (tuples/s·slots).
	Cost   float64
	Regret float64
	// PlanProbes and ProbeCost describe the probe schedule (zero for
	// unplanned modes). Probes run on the scaled-down simulator, so
	// ProbeCost is reported context, not part of Cost.
	PlanProbes int
	ProbeCost  float64
}

// CapacityResult is the three-way comparison at one seed.
type CapacityResult struct {
	Workload string
	Slots    int
	SlotSecs int
	Seed     int64
	Budget   int
	// PeakRates is the per-source surge peak the plan must cover.
	PeakRates []float64
	Planned   *CapacityRow
	ColdFloor *CapacityRow
	Daedalus  *CapacityRow
}

// Rows lists the runs in presentation order.
func (r *CapacityResult) Rows() []*CapacityRow {
	return []*CapacityRow{r.Planned, r.ColdFloor, r.Daedalus}
}

// capacityTraffic is the experiment's trace-replay load: a diurnal
// sinusoid scaled by a Black-Friday surge that peaks at surgePeak× just
// past mid-horizon. Both fleet tenants and the Daedalus scenario replay
// the identical function.
func capacityTraffic(spec *workload.Spec, slots int) (workload.RateFunc, error) {
	base := make([]float64, len(spec.LowRates))
	amp := make([]float64, len(spec.LowRates))
	for i := range base {
		// Diurnal swing between ~0.5× and ~1.5× of the low-rate baseline.
		base[i] = spec.LowRates[i]
		amp[i] = 0.5 * spec.LowRates[i]
	}
	diurnal, err := workload.Sinusoid(base, amp, slots)
	if err != nil {
		return nil, err
	}
	// Surge: smooth build over ~1/6 of the horizon, hold, then decay —
	// peak sized so peak offered load ≈ the spec's high-rate regime.
	peak := 0.0
	for i := range base {
		if r := spec.HighRates[i] / (1.5 * spec.LowRates[i]); r > peak {
			peak = r
		}
	}
	if peak < 1 {
		peak = 1
	}
	build := slots / 6
	if build < 1 {
		build = 1
	}
	return workload.BlackFriday(diurnal, slots/2, build, build, build, peak)
}

// capacityFleetConfig is a single-tenant fleet running the shared
// traffic; planned toggles PlanOnAdmit and nothing else.
func capacityFleetConfig(spec *workload.Spec, rates workload.RateFunc, slots, slotSeconds int, seed int64, budget int, planned bool) fleet.Config {
	name := "cold-floor"
	if planned {
		name = "planned"
	}
	return fleet.Config{
		Jobs: []fleet.JobSpec{
			{Name: name, Workload: spec, Rates: rates, PlanOnAdmit: planned},
		},
		Slots:           slots,
		SlotSeconds:     slotSeconds,
		Seed:            seed,
		TotalTaskBudget: budget,
	}
}

// RunCapacity runs the three-way comparison on one workload spec.
func RunCapacity(spec *workload.Spec, slots, slotSeconds int, seed int64) (*CapacityResult, error) {
	rates, err := capacityTraffic(spec, slots)
	if err != nil {
		return nil, err
	}
	// The budget leaves the controller free to explore the full grid for
	// one operator while the rest sit at useful levels — generous enough
	// that admission never blocks either tenant.
	budget := spec.Graph.NumOperators() * spec.MaxTasks
	out := &CapacityResult{
		Workload:  spec.Name,
		Slots:     slots,
		SlotSecs:  slotSeconds,
		Seed:      seed,
		Budget:    budget,
		PeakRates: workload.PeakRates(rates, spec.Graph.NumSources(), slots),
	}
	opt := optima{}

	for _, planned := range []bool{true, false} {
		m, err := fleet.New(capacityFleetConfig(spec, rates, slots, slotSeconds, seed, budget, planned))
		if err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, err
		}
		jr := res.Jobs[0]
		row, err := opt.score(jr.Name, spec, len(jr.Rounds), func(i int) ([]float64, float64, float64) {
			r := &jr.Rounds[i]
			return r.Rates, r.Steady, r.CostCum
		})
		if err != nil {
			return nil, err
		}
		if planned {
			if p := m.PlanFor(jr.Name); p != nil {
				row.PlanProbes = len(p.Probes)
				row.ProbeCost = p.ProbeCost
			}
			out.Planned = row
		} else {
			out.ColdFloor = row
		}
	}

	// Daedalus runs through the single-job scenario harness: no fleet
	// admission layer, but the same traffic, horizon, seed, and budget.
	dres, err := Run(Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       slots,
		SlotSeconds: slotSeconds,
		Seed:        seed,
		TaskBudget:  budget,
	}, DaedalusPolicy())
	if err != nil {
		return nil, err
	}
	out.Daedalus, err = opt.score("daedalus", spec, len(dres.Trace), func(i int) ([]float64, float64, float64) {
		st := &dres.Trace[i]
		return st.Rates, st.SteadyThroughput, st.CostCum
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderCapacity writes the comparison as a text table.
func RenderCapacity(w io.Writer, r *CapacityResult) {
	fmt.Fprintf(w, "Capacity planning: planned admission vs cold floor vs self-adaptive\n")
	fmt.Fprintf(w, "(%s, %d slots × %d s, budget %d tasks, surge peak %.0f tup/s, seed %d)\n\n",
		r.Workload, r.Slots, r.SlotSecs, r.Budget, slices.Max(r.PeakRates), r.Seed)
	fmt.Fprintf(w, "%-12s %12s %14s %14s %16s %8s %10s\n",
		"mode", "SLO round", "$ to SLO", "$ total", "regret (tup/s·sl)", "probes", "probe $")
	for _, row := range r.Rows() {
		slo := "never"
		if row.RoundsToSLO >= 0 {
			slo = fmt.Sprintf("%d", row.RoundsToSLO)
		}
		fmt.Fprintf(w, "%-12s %12s %14.4f %14.4f %16.0f %8d %10.4f\n",
			row.Mode, slo, row.CostToSLO, row.Cost, row.Regret, row.PlanProbes, row.ProbeCost)
	}
	fmt.Fprintf(w, "\nSLO = steady ≥ %.0f%% of the per-round ground-truth optimum, sustained to horizon end.\n",
		100*capacitySLOFraction)
	fmt.Fprintf(w, "Probes run on the scaled-down simulator (StreamBed-style), so probe $ is not in $ total.\n")
}
