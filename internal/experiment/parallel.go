package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Parallel run fan-out. Independent runs (distinct seeds, distinct sweep
// points) each build their own cluster, engine, RNG, and policy inside
// Run, so they share no mutable state beyond the scenario's pointer
// fields:
//
//   - Spec / ControllerGraph are immutable after Build;
//   - capacity models are stateless value types;
//   - each run counts in a fresh metrics registry (or its Tracer's);
//   - the Tracer is single-threaded by contract, so any run fan-out that
//     would share one serializes itself (workers forced to 1).
//
// Results are written to index-addressed slots and reduced serially in
// input order — the same discipline as gp.MaximizeLMLWorkers — so a fixed
// seed set yields byte-identical aggregates at any worker count.

// clampWorkers resolves a worker-count knob against n independent work
// items: 0 means one worker per CPU, and the pool never exceeds n.
func clampWorkers(workers, n int) (int, error) {
	if workers < 0 {
		return 0, errors.New("experiment: negative worker count")
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers, nil
}

// RepeatWorkers is Repeat with an explicit worker count: the per-seed runs
// are fanned across a bounded pool of `workers` goroutines (0 = one per
// CPU). Each worker owns the strided subset i, i+workers, i+2·workers, …
// of the seed list; results land in per-seed slots and are aggregated
// serially in seed order after the pool joins, so the output is
// byte-identical to workers=1. A scenario with a Tracer installed always
// runs sequentially (the tracer is single-threaded by contract and would
// be shared by every per-seed run).
func RepeatWorkers(sc Scenario, factory PolicyFactory, seeds []int64, workers int) (*RepeatResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiment: Repeat needs at least one seed")
	}
	workers, err := clampWorkers(workers, len(seeds))
	if err != nil {
		return nil, err
	}
	if sc.Tracer != nil {
		workers = 1
	}
	runs := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(seeds); i += workers {
				s := sc
				s.Seed = seeds[i]
				runs[i], errs[i] = Run(s, factory)
			}
		}(w)
	}
	wg.Wait()
	// First failure in seed order wins, matching the sequential behaviour.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: seed %d: %w", seeds[i], err)
		}
	}
	return aggregateRuns(runs)
}

// SweepPoint is one cell of a scenario sweep: a named (scenario, policy)
// pair. The Scenario carries its own Seed; Sweep does not rewrite it.
type SweepPoint struct {
	Name     string
	Scenario Scenario
	Factory  PolicyFactory
}

// Sweep runs every point across a bounded pool of `workers` goroutines
// (0 = one per CPU) and returns the results in input order. Like
// RepeatWorkers it assigns points to workers by stride and reduces
// serially, so the output is byte-identical at any worker count; if any
// point has a Tracer installed the whole sweep runs sequentially, since
// points may share one tracer and span emission is single-threaded.
func Sweep(points []SweepPoint, workers int) ([]*Result, error) {
	if len(points) == 0 {
		return nil, errors.New("experiment: Sweep needs at least one point")
	}
	workers, err := clampWorkers(workers, len(points))
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if p.Factory == nil {
			return nil, fmt.Errorf("experiment: sweep point %d (%s): nil factory", i, p.Name)
		}
		if p.Scenario.Tracer != nil {
			workers = 1
		}
	}
	runs := make([]*Result, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(points); i += workers {
				runs[i], errs[i] = Run(points[i].Scenario, points[i].Factory)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: sweep point %d (%s): %w", i, points[i].Name, err)
		}
	}
	return runs, nil
}
