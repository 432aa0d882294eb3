// Package experiment is the harness that reproduces the paper's
// evaluation: it drives an Autoscaler policy against the simulated
// Flink-on-Kubernetes stack slot by slot, computes ground-truth optimal
// configurations for convergence and regret accounting, and formats the
// per-table/per-figure outputs.
package experiment

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/mathx"
	"dragster/internal/par"
	"dragster/internal/workload"
)

// Optimum describes the best achievable steady state for one offered-load
// vector.
type Optimum struct {
	Tasks      []int
	Throughput float64 // noise-free steady-state tuples/s at the sink
	TotalTasks int
}

// SteadyThroughput evaluates the noise-free steady-state application
// throughput of a task vector under the spec's hidden capacity curves.
func SteadyThroughput(spec *workload.Spec, rates []float64, tasks []int) (float64, error) {
	if len(tasks) != spec.Graph.NumOperators() {
		return 0, fmt.Errorf("experiment: got %d task counts, want %d", len(tasks), spec.Graph.NumOperators())
	}
	caps := make([]float64, len(tasks))
	for i, n := range tasks {
		caps[i] = spec.Models[i].Capacity(n)
	}
	return spec.Graph.Throughput(rates, caps)
}

// ThroughputGrid evaluates SteadyThroughput over the whole MaxTasks ×
// MaxTasks task grid of a two-operator workload: grid[a-1][b-1] is the
// throughput at (a, b) tasks, the Fig. 4 heatmap. The cells are
// independent, so par.For fills them by index and the result is the same
// at any GOMAXPROCS.
func ThroughputGrid(spec *workload.Spec, rates []float64) ([][]float64, error) {
	if m := spec.Graph.NumOperators(); m != 2 {
		return nil, fmt.Errorf("experiment: throughput grid needs 2 operators, got %d", m)
	}
	n := spec.MaxTasks
	grid := make([][]float64, n)
	for a := range grid {
		grid[a] = make([]float64, n)
	}
	errs := make([]error, n*n)
	par.For(n*n, 0, func(i int) {
		a, b := i/n, i%n
		grid[a][b], errs[i] = SteadyThroughput(spec, rates, []int{a + 1, b + 1})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return grid, nil
}

// OptimalConfig finds the task vector (1..spec.MaxTasks per operator,
// Σ tasks ≤ budget when budget > 0) that maximizes steady-state
// throughput, breaking throughput ties in favour of fewer total tasks
// (the economical optimum the paper's cost analysis refers to).
//
// Without a budget the search is a greedy topological pass (exact for the
// monotone tree-shaped workloads in the suite: each operator takes the
// smallest parallelism covering its demand). With a budget it is an
// exhaustive grid search, refused when the grid has more than
// maxBudgetedGrid cells (every built-in workload fits: Yahoo's six
// operators at 10 tasks each make exactly 10⁶).
func OptimalConfig(spec *workload.Spec, rates []float64, budget int) (*Optimum, error) {
	m := spec.Graph.NumOperators()
	if len(rates) != spec.Graph.NumSources() {
		return nil, fmt.Errorf("experiment: got %d rates, want %d", len(rates), spec.Graph.NumSources())
	}
	if budget < 0 {
		return nil, errors.New("experiment: negative budget")
	}
	if budget > 0 && budget < m {
		return nil, fmt.Errorf("experiment: budget %d cannot host %d operators", budget, m)
	}

	if budget == 0 {
		return greedyOptimum(spec, rates)
	}
	if cells := math.Pow(float64(spec.MaxTasks), float64(m)); cells > maxBudgetedGrid {
		return nil, fmt.Errorf("experiment: budgeted search over %d operators × %d tasks is %.3g cells, over the %g limit",
			m, spec.MaxTasks, cells, float64(maxBudgetedGrid))
	}
	return exhaustiveOptimum(spec, rates, budget)
}

// maxBudgetedGrid bounds the grid a budgeted OptimalConfig enumerates.
const maxBudgetedGrid = 1e6

// greedyOptimum gives every operator the smallest parallelism whose
// ground-truth capacity covers its demand (dag.Graph.CoverDemand).
func greedyOptimum(spec *workload.Spec, rates []float64) (*Optimum, error) {
	tasks, caps, err := spec.Graph.CoverDemand(rates, spec.MaxTasks,
		func(op, n int) float64 { return spec.Models[op].Capacity(n) })
	if err != nil {
		return nil, err
	}
	th, err := spec.Graph.Throughput(rates, caps)
	if err != nil {
		return nil, err
	}
	return &Optimum{Tasks: tasks, Throughput: th, TotalTasks: mathx.SumInts(tasks)}, nil
}

// exhaustiveOptimum enumerates the full grid under the budget.
func exhaustiveOptimum(spec *workload.Spec, rates []float64, budget int) (*Optimum, error) {
	m := spec.Graph.NumOperators()
	tasks := make([]int, m)
	for i := range tasks {
		tasks[i] = 1
	}
	best := &Optimum{Throughput: -1}
	caps := make([]float64, m)
	for {
		if total := mathx.SumInts(tasks); total <= budget {
			for i, n := range tasks {
				caps[i] = spec.Models[i].Capacity(n)
			}
			th, err := spec.Graph.Throughput(rates, caps)
			if err != nil {
				return nil, err
			}
			if th > best.Throughput+1e-9 ||
				(math.Abs(th-best.Throughput) <= 1e-9 && total < best.TotalTasks) {
				best = &Optimum{Tasks: append([]int(nil), tasks...), Throughput: th, TotalTasks: total}
			}
		}
		// Odometer increment.
		i := 0
		for ; i < m; i++ {
			tasks[i]++
			if tasks[i] <= spec.MaxTasks {
				break
			}
			tasks[i] = 1
		}
		if i == m {
			break
		}
	}
	if best.Throughput < 0 {
		return nil, errors.New("experiment: no feasible configuration")
	}
	return best, nil
}

// optima caches OptimalConfig by workload name and offered rates: an
// optimum is a pure function of both, so a constant-rate run costs one
// grid search, not one per round.
type optima map[[2]string]*Optimum

// score scores one run of n rounds against the unbudgeted optimum at
// each round's offered rates; round(i) returns round i's rates, steady
// throughput and cumulative cost. Regret is Σ max(0, optimum − steady),
// and RoundsToSLO the first round from which every remaining round meets
// capacitySLOFraction of its optimum.
func (o optima) score(mode string, spec *workload.Spec, n int, round func(i int) (rates []float64, steady, costCum float64)) (*CapacityRow, error) {
	meets := make([]bool, n)
	row := &CapacityRow{Mode: mode, RoundsToSLO: -1}
	for i := 0; i < n; i++ {
		rates, steady, costCum := round(i)
		k := [2]string{spec.Name, fmt.Sprint(rates)}
		opt, ok := o[k]
		if !ok {
			var err error
			if opt, err = OptimalConfig(spec, rates, 0); err != nil {
				return nil, fmt.Errorf("experiment: %s optimum round %d: %w", mode, i, err)
			}
			o[k] = opt
		}
		meets[i] = steady >= capacitySLOFraction*opt.Throughput
		row.Regret += math.Max(0, opt.Throughput-steady)
		row.Cost = costCum
	}
	// Sustained onset: the earliest round whose SLO suffix is unbroken.
	for i := n - 1; i >= 0 && meets[i]; i-- {
		row.RoundsToSLO = i
	}
	row.CostToSLO = row.Cost
	if row.RoundsToSLO >= 0 {
		_, _, row.CostToSLO = round(row.RoundsToSLO)
	}
	return row, nil
}
