package experiment

import (
	"fmt"
	"io"
	"math"

	"dragster/internal/fleet"
	"dragster/internal/workload"
)

// Fleet experiment: run the multi-job control plane (internal/fleet) and
// score it with the same regret formulation the single-job experiments
// use. The fleet manager is deliberately regret-agnostic — it never sees
// the hidden capacity curves — so the experiment layer computes each
// job's per-round regret post hoc against OptimalConfig, exactly like
// the Fig. 4–7 harnesses.

// FleetJobScore is one tenant's experiment-level outcome.
type FleetJobScore struct {
	Name     string
	Workload string
	// Regret is Σ_rounds max(0, optimal − steady) over the job's
	// lifetime, in tuples/s·slots — the Eq. 4 objective summed over the
	// rounds the job actually ran. The optimum is the job's unbudgeted
	// single-job optimum, so every tenant is held to the same yardstick
	// under either arbitration rule.
	Regret float64
	// Cost is the job's attributed spend in dollars.
	Cost float64
	// Rounds is how many fleet rounds the job ran.
	Rounds int
	// WarmStartRecords is how many archive records seeded the job's GPs.
	WarmStartRecords int
}

// FleetScore is a scored fleet run.
type FleetScore struct {
	Arbitration     fleet.Arbitration
	AggregateRegret float64
	AggregateCost   float64
	BudgetOverruns  int
	SkippedRounds   int
	Jobs            []FleetJobScore
}

// RunFleetScenario runs the fleet cfg describes (jobs, schedule, budget,
// arbitration) and scores every tenant.
func RunFleetScenario(cfg fleet.Config) (*FleetScore, error) {
	specs := make(map[string]*workload.Spec, len(cfg.Jobs))
	for i := range cfg.Jobs {
		specs[cfg.Jobs[i].Name] = cfg.Jobs[i].Workload
	}
	m, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return scoreFleet(res, specs)
}

func scoreFleet(res *fleet.Result, specs map[string]*workload.Spec) (*FleetScore, error) {
	score := &FleetScore{
		Arbitration:    res.Arbitration,
		BudgetOverruns: res.BudgetOverruns,
		SkippedRounds:  res.SkippedRounds,
	}
	opt := optima{}
	for _, jr := range res.Jobs {
		js := FleetJobScore{
			Name:             jr.Name,
			Workload:         jr.Workload,
			Cost:             jr.Cost,
			Rounds:           len(jr.Rounds),
			WarmStartRecords: jr.WarmStartRecords,
		}
		// A dynamically submitted job has no spec handle to score with.
		if spec := specs[jr.Name]; spec != nil {
			row, err := opt.score(jr.Name, spec, len(jr.Rounds), func(i int) ([]float64, float64, float64) {
				r := &jr.Rounds[i]
				return r.Rates, r.Steady, r.CostCum
			})
			if err != nil {
				return nil, err
			}
			js.Regret = row.Regret
		}
		score.AggregateRegret += js.Regret
		score.AggregateCost += js.Cost
		score.Jobs = append(score.Jobs, js)
	}
	return score, nil
}

// FleetBenchResult compares the dual-price arbiter against the static
// equal-split baseline on the same fleet at the same seed.
type FleetBenchResult struct {
	Slots      int
	SlotSecs   int
	Seed       int64
	Budget     int
	DualPrice  *FleetScore
	EqualSplit *FleetScore
}

// CostSaving is the relative spend reduction of dual-price vs
// equal-split (positive = dual-price cheaper).
func (r *FleetBenchResult) CostSaving() float64 {
	if r.EqualSplit.AggregateCost == 0 {
		return 0
	}
	return 1 - r.DualPrice.AggregateCost/r.EqualSplit.AggregateCost
}

// benchConfig is the canonical mixed fleet of the benchmark: one hot
// tenant whose optimum needs most of the budget, plus two lightly loaded
// tenants. Equal-split hands the light tenants budget they convert into
// GP-UCB exploration excursions while starving the hot tenant;
// dual-price ratchets the light tenants toward their usage and routes
// the surplus to the hot tenant's positive shadow price.
func benchConfig(slots, slotSeconds int, seed int64, arb fleet.Arbitration) (fleet.Config, error) {
	wc, err := workload.WordCount()
	if err != nil {
		return fleet.Config{}, err
	}
	g1, err := workload.Group()
	if err != nil {
		return fleet.Config{}, err
	}
	g2, err := workload.Group()
	if err != nil {
		return fleet.Config{}, err
	}
	hotRates, err := workload.Constant(wc.HighRates)
	if err != nil {
		return fleet.Config{}, err
	}
	lightRates, err := workload.Constant([]float64{3000})
	if err != nil {
		return fleet.Config{}, err
	}
	lightRates2, err := workload.Constant([]float64{4000})
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Jobs: []fleet.JobSpec{
			{Name: "hot", Workload: wc, Rates: hotRates},
			{Name: "light-a", Workload: g1, Rates: lightRates},
			{Name: "light-b", Workload: g2, Rates: lightRates2},
		},
		Slots:           slots,
		SlotSeconds:     slotSeconds,
		Seed:            seed,
		TotalTaskBudget: 20,
		Arbitration:     arb,
		// A faster arbiter cadence and growth cap let the dual-price rule
		// route surplus to the hot tenant within a few rounds; equal-split
		// ignores both knobs after its first (static) partition.
		RebalanceEvery: 2,
		MaxGrowTasks:   6,
	}, nil
}

// FleetBench runs the canonical benchmark fleet under both arbitration
// rules at one seed and returns the comparison. The claim under test:
// dual-price arbitration spends less while accumulating no more regret.
func FleetBench(slots, slotSeconds int, seed int64) (*FleetBenchResult, error) {
	out := &FleetBenchResult{Slots: slots, SlotSecs: slotSeconds, Seed: seed}
	for _, arb := range []fleet.Arbitration{fleet.DualPrice, fleet.EqualSplit} {
		cfg, err := benchConfig(slots, slotSeconds, seed, arb)
		if err != nil {
			return nil, err
		}
		out.Budget = cfg.TotalTaskBudget
		score, err := RunFleetScenario(cfg)
		if err != nil {
			return nil, err
		}
		if arb == fleet.DualPrice {
			out.DualPrice = score
		} else {
			out.EqualSplit = score
		}
	}
	return out, nil
}

// RenderFleetBench writes the benchmark comparison as a text table.
func RenderFleetBench(w io.Writer, r *FleetBenchResult) {
	fmt.Fprintf(w, "Fleet benchmark: dual-price vs equal-split arbitration\n")
	fmt.Fprintf(w, "(%d jobs, budget %d tasks, %d slots × %d s, seed %d)\n\n",
		len(r.DualPrice.Jobs), r.Budget, r.Slots, r.SlotSecs, r.Seed)
	fmt.Fprintf(w, "%-12s %18s %14s %10s %8s\n", "arbiter", "Σ regret (tup/s·sl)", "Σ cost ($)", "overruns", "skipped")
	for _, s := range []*FleetScore{r.DualPrice, r.EqualSplit} {
		fmt.Fprintf(w, "%-12s %18.0f %14.4f %10d %8d\n",
			s.Arbitration, s.AggregateRegret, s.AggregateCost, s.BudgetOverruns, s.SkippedRounds)
	}
	fmt.Fprintf(w, "\ncost saving: %.1f%%  regret ratio: %.3f\n",
		100*r.CostSaving(), regretRatio(r))
	fmt.Fprintf(w, "\n%-12s %-10s %18s %14s %8s %10s\n", "job", "workload", "regret", "cost ($)", "rounds", "warmstart")
	for _, s := range []*FleetScore{r.DualPrice, r.EqualSplit} {
		fmt.Fprintf(w, "[%s]\n", s.Arbitration)
		for _, j := range s.Jobs {
			fmt.Fprintf(w, "%-12s %-10s %18.0f %14.4f %8d %10d\n",
				j.Name, j.Workload, j.Regret, j.Cost, j.Rounds, j.WarmStartRecords)
		}
	}
}

func regretRatio(r *FleetBenchResult) float64 {
	if r.EqualSplit.AggregateRegret == 0 {
		if r.DualPrice.AggregateRegret == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return r.DualPrice.AggregateRegret / r.EqualSplit.AggregateRegret
}
