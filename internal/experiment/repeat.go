package experiment

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/par"
)

// Aggregate summarizes one metric across repeated runs.
type Aggregate struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

func aggregate(xs []float64) Aggregate {
	a := Aggregate{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return a
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < a.Min {
			a.Min = x
		}
		if x > a.Max {
			a.Max = x
		}
	}
	a.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - a.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		a.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return a
}

// String renders "mean ± std [min, max] (n=N)".
func (a Aggregate) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", a.Mean, a.Std, a.Min, a.Max, a.N)
}

// RepeatResult collects per-seed results and headline aggregates.
type RepeatResult struct {
	Runs []*Result
	// ConvergenceMinutes aggregates the first-phase convergence time over
	// the seeds that converged; Unconverged counts the rest.
	ConvergenceMinutes Aggregate
	Unconverged        int
	// ProcessedTuples, CostPerBillion and MeanLatencySec aggregate the
	// whole-run totals.
	ProcessedTuples Aggregate
	CostPerBillion  Aggregate
	MeanLatencySec  Aggregate
}

// Repeat runs the scenario under the policy once per seed — in parallel,
// one worker per CPU — and aggregates the headline metrics. The
// scenario's own Seed field is ignored.
//
// The per-seed runs share no mutable state: each builds its own cluster,
// engine, RNG and policy inside Run and counts in its own registry, and
// Spec, ControllerGraph and the capacity models are immutable. Results
// land in per-seed slots and are aggregated in seed order after the
// fan-out joins, so the output is byte-identical at any worker count. A
// scenario with a Tracer runs the seeds sequentially: the tracer is
// single-threaded by contract and every run would share it.
func Repeat(sc Scenario, factory PolicyFactory, seeds []int64) (*RepeatResult, error) {
	return repeat(sc, factory, seeds, 0)
}

// repeat is Repeat at an explicit par.For worker count (≤ 0 = one per
// CPU); the tests and benchmarks pin it.
func repeat(sc Scenario, factory PolicyFactory, seeds []int64, workers int) (*RepeatResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiment: Repeat needs at least one seed")
	}
	if sc.Tracer != nil {
		workers = 1
	}
	runs := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	par.For(len(seeds), workers, func(i int) {
		s := sc
		s.Seed = seeds[i]
		runs[i], errs[i] = Run(s, factory)
	})
	// First failure in seed order wins, matching the sequential behaviour.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: seed %d: %w", seeds[i], err)
		}
	}
	return aggregateRuns(runs)
}

// aggregateRuns folds completed per-seed runs, in seed order, into the
// headline aggregates.
func aggregateRuns(runs []*Result) (*RepeatResult, error) {
	out := &RepeatResult{Runs: runs}
	var convs, processed, costs, lats []float64
	for _, res := range runs {
		conv, err := ConvergenceMinutes(res)
		if err != nil {
			return nil, err
		}
		if conv < 0 {
			out.Unconverged++
		} else {
			convs = append(convs, conv)
		}
		processed = append(processed, TotalProcessed(res))
		costs = append(costs, CostPerBillion(res))
		lats = append(lats, MeanLatency(res))
	}
	out.ConvergenceMinutes = aggregate(convs)
	out.ProcessedTuples = aggregate(processed)
	out.CostPerBillion = aggregate(costs)
	out.MeanLatencySec = aggregate(lats)
	return out, nil
}

// Seeds returns {1, ..., n} — the conventional seed set for -seeds n.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}
