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
// hidden capacity curve for tens of thousands of rounds. The GP keeps one
// row per distinct configuration, so its exact posterior never holds more
// than the 24 candidates however long the run — the full cluster
// simulation never reaches this regime in test time, which is exactly why
// the scenario drives ucb.Searcher directly.

// LongHorizonConfig parameterizes one long-horizon run.
type LongHorizonConfig struct {
	// Rounds is the number of select→observe rounds (required).
	Rounds int
	// Seed drives observation noise (default 1).
	Seed int64
	// onCheckpoint, when set, is handed the cumulative regret at each
	// checkpoint round (the soak test samples runtime.MemStats mid-run
	// and checks the regret curve through it).
	onCheckpoint func(round int, cumRegret float64)
}

// lhCheckpoints is how many cumulative-regret checkpoints a run reports
// to onCheckpoint, spaced evenly over its rounds.
const lhCheckpoints = 10

// LongHorizonResult summarizes a long-horizon run.
type LongHorizonResult struct {
	Rounds       int
	CumRegret    float64 // cumulative target-tracking regret over the run
	Observations int     // observations the GP took
	Rows         int     // distinct configurations the GP holds at the end
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
		NoiseVar:         100,
		Candidates:       cands,
		ExplorationScale: 0.1,
	})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	res := &LongHorizonResult{Rounds: cfg.Rounds}
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
		if cfg.onCheckpoint != nil && ((round+1)%every == 0 || round == cfg.Rounds-1) {
			cfg.onCheckpoint(round+1, res.CumRegret)
		}
	}
	res.Observations = s.Regressor().Len()
	res.Rows = s.Regressor().Rows()
	return res, nil
}

// RenderLongHorizon prints one run as the long-horizon table row.
func RenderLongHorizon(w io.Writer, r *LongHorizonResult) {
	fmt.Fprintf(w, "Long horizon: exact GP posterior, one row per configuration (%d rounds, target-tracking regret)\n", r.Rounds)
	fmt.Fprintf(w, "%12s %12s %12s %14s\n", "observations", "rows", "cum regret", "regret/round")
	fmt.Fprintf(w, "%12d %12d %12.0f %14.3f\n",
		r.Observations, r.Rows, r.CumRegret, r.CumRegret/float64(r.Rounds))
}
