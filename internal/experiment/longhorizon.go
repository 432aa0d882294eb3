package experiment

import (
	"errors"
	"fmt"
	"io"
	"math"

	"dragster/internal/stats"
	"dragster/internal/ucb"
)

// The long-horizon scenario exercises the ROADMAP's months-of-rounds
// regime directly at the optimizer layer: a single extended-GP-UCB
// searcher tracks a slowly oscillating capacity target against a concave
// hidden capacity curve for tens of thousands of rounds. Without an
// observation budget, round cost grows as O(t²) and memory as O(t) —
// the full cluster simulation never reaches this regime in test time,
// which is exactly why the scenario drives ucb.Searcher directly.

// LongHorizonConfig parameterizes one long-horizon run.
type LongHorizonConfig struct {
	// Rounds is the number of select→observe rounds (required).
	Rounds int
	// Budget caps the GP's retained observations (0 = exact/unbudgeted —
	// feasible only for small Rounds; the per-round cost grows
	// quadratically without a budget).
	Budget int
	// Seed drives observation noise (default 1).
	Seed int64
	// onCheckpoint, when set, fires as each checkpoint is recorded (the
	// soak test samples runtime.MemStats mid-run through it).
	onCheckpoint func(LongHorizonPoint)
}

// lhCheckpoints is how many cumulative-regret checkpoints a run records,
// spaced evenly over its rounds.
const lhCheckpoints = 10

// LongHorizonPoint is one cumulative-regret checkpoint.
type LongHorizonPoint struct {
	Round     int
	CumRegret float64
}

// LongHorizonResult summarizes a long-horizon run.
type LongHorizonResult struct {
	Rounds      int
	Budget      int
	CumRegret   float64 // cumulative target-tracking regret over the run
	Retained    int     // observations held at the end
	Evictions   uint64
	Checkpoints []LongHorizonPoint
}

// lhCapacity is the hidden concave capacity curve (tuples/s at n tasks),
// the same shape the cluster workloads exhibit.
func lhCapacity(n float64) float64 { return 60 * math.Pow(n, 0.9) }

// lhTarget is the target-capacity schedule: a slow sinusoid sweeping the
// middle of the achievable range, so the tracking problem never settles.
func lhTarget(round int) float64 {
	return 500 + 350*math.Sin(2*math.Pi*float64(round)/200)
}

// LongHorizon runs the scenario: each round selects a configuration for
// the scheduled target, pays target-tracking regret
// |cap(x_t) − y_t| − min_c |cap(c) − y_t|, and feeds back a noisy
// capacity observation. Deterministic for a given config.
func LongHorizon(cfg LongHorizonConfig) (*LongHorizonResult, error) {
	if cfg.Rounds <= 0 {
		return nil, errors.New("experiment: LongHorizon needs Rounds > 0")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cands := make([][]float64, 24)
	for i := range cands {
		cands[i] = []float64{float64(i + 1)}
	}
	s, err := ucb.NewSearcher(ucb.Config{
		NoiseVar:          100,
		Candidates:        cands,
		ExplorationScale:  0.1,
		ObservationBudget: cfg.Budget,
	})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	res := &LongHorizonResult{Rounds: cfg.Rounds, Budget: cfg.Budget}
	every := cfg.Rounds / lhCheckpoints
	if every == 0 {
		every = 1
	}
	for round := 0; round < cfg.Rounds; round++ {
		target := lhTarget(round)
		var x []float64
		if x, _, _, err = s.Select(target); err != nil {
			if !errors.Is(err, ucb.ErrNoData) {
				return nil, err
			}
			x = cands[0] // cold start: the smallest configuration
		}
		// Best achievable tracking error over the candidate grid.
		best := math.Inf(1)
		for _, c := range cands {
			if d := math.Abs(lhCapacity(c[0]) - target); d < best {
				best = d
			}
		}
		res.CumRegret += math.Abs(lhCapacity(x[0])-target) - best
		if err := s.Observe(x, lhCapacity(x[0])+rng.Normal(0, 10)); err != nil {
			return nil, err
		}
		if (round+1)%every == 0 || round == cfg.Rounds-1 {
			p := LongHorizonPoint{Round: round + 1, CumRegret: res.CumRegret}
			res.Checkpoints = append(res.Checkpoints, p)
			if cfg.onCheckpoint != nil {
				cfg.onCheckpoint(p)
			}
		}
	}
	res.Retained = s.Regressor().Len()
	res.Evictions = s.Regressor().Evictions()
	return res, nil
}

// LongHorizonSweep runs the scenario once per budget (0 = exact) with a
// shared round count and seed, for the budgeted-vs-exact regret table in
// EXPERIMENTS.md.
func LongHorizonSweep(budgets []int, rounds int, seed int64) ([]*LongHorizonResult, error) {
	out := make([]*LongHorizonResult, 0, len(budgets))
	for _, b := range budgets {
		r, err := LongHorizon(LongHorizonConfig{Rounds: rounds, Budget: b, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("budget %d: %w", b, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderLongHorizon prints the sweep as the budgeted-vs-exact table.
func RenderLongHorizon(w io.Writer, results []*LongHorizonResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "Long horizon: budgeted vs exact GP posteriors (%d rounds, target-tracking regret)\n", results[0].Rounds)
	fmt.Fprintf(w, "%-10s %-22s %12s %12s %12s %14s\n",
		"budget", "eviction", "retained", "evictions", "cum regret", "regret/round")
	for _, r := range results {
		budget := "exact"
		policy := "-"
		if r.Budget > 0 {
			budget = fmt.Sprintf("%d", r.Budget)
			policy = "lowest-information"
		}
		fmt.Fprintf(w, "%-10s %-22s %12d %12d %12.0f %14.3f\n",
			budget, policy, r.Retained, r.Evictions, r.CumRegret,
			r.CumRegret/float64(r.Rounds))
	}
}
