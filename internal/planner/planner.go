// Package planner is Dragster's pre-launch capacity planner: given a
// job's DAG and a target sustained rate, it answers "what per-operator
// task counts does this job need to sustain X tuples/s?" before the job
// is ever admitted — the StreamBed problem (Lambion et al., arXiv
// 2309.03377) solved with the machinery this repo already owns.
//
// The planner runs a deterministic, budget-bounded schedule of short
// scaled-down probe simulations against the workload's hidden capacity
// models (internal/streamsim): each probe pins one operator at a small
// task count, over-provisions every other operator at the grid maximum,
// overdrives the sources, and measures the probed operator's emitted
// rate. A probe only yields a capacity observation when the operator was
// genuinely saturated — input backlog growing and CPU pinned — because
// an unsaturated probe measures the upstream feed, not the operator.
// Operators whose large-n capacity exceeds what the rest of the DAG can
// feed them stop probing early; their curves extrapolate from the
// scaled-down observations with widening confidence bands, which is
// exactly the StreamBed story: short cheap runs at small scale, a fitted
// model for the target scale.
//
// Per-operator capacity curves are fitted with the existing GP engine
// (internal/gp, one-dimensional task-count inputs, LML-optimized SE
// kernel), and the plan is synthesized by the same greedy topological
// pass the ground-truth optimum uses (dag.Graph.CoverDemand) — except
// demands are covered by the GP lower confidence bound rather than the
// hidden truth, so the plan is conservative exactly where the data is
// thin.
//
// The fleet admission controller consumes plans through
// fleet.JobSpec.PlanOnAdmit: the tenant's admission grant and initial
// configuration come from Plan.Tasks instead of the cold floor, and
// Plan.Records seeds the tenant's GP warm-start store so the online
// controller starts from the probed curves.
package planner

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/cluster"
	"dragster/internal/flink"
	"dragster/internal/gp"
	"dragster/internal/streamsim"
	"dragster/internal/workload"
)

// bigCap stands in for "unconstrained" capacity when evaluating the
// unconstrained target throughput (dag.Evaluate rejects Inf).
const bigCap = 1e15

// sloFraction is the fraction of the unconstrained target throughput a
// plan must predict to be called feasible.
const sloFraction = 0.95

// lcbBeta widens the GP lower confidence bound used to cover demand:
// lcb = mu − lcbBeta·sigma.
const lcbBeta = 1

// Config assembles a planning run.
type Config struct {
	// Spec is the workload to plan (DAG, capacity models, grid bounds).
	Spec *workload.Spec
	// TargetRates is the sustained per-source offered load (tuples/s) the
	// plan must cover (required; one entry per source).
	TargetRates []float64
	// Seed drives probe-simulation noise. Plans are a pure function of
	// the config: same inputs, byte-identical plan.
	Seed int64
}

func (c *Config) setDefaults() error {
	if c.Spec == nil {
		return errors.New("planner: nil workload spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("planner: %w", err)
	}
	if len(c.TargetRates) != c.Spec.Graph.NumSources() {
		return fmt.Errorf("planner: got %d target rates, want %d", len(c.TargetRates), c.Spec.Graph.NumSources())
	}
	for i, r := range c.TargetRates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("planner: target rate %d = %v invalid", i, r)
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Build runs the probe schedule, fits the per-operator capacity curves,
// and synthesizes the plan. The result is deterministic: the same config
// produces a byte-identical Plan (see Plan.Encode).
func Build(cfg Config) (*Plan, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	spec := cfg.Spec
	m := spec.Graph.NumOperators()

	probes, err := runSchedule(&cfg, probesPerOperator*m)
	if err != nil {
		return nil, err
	}

	regs, err := fitCurves(&cfg, probes)
	if err != nil {
		return nil, err
	}

	// Tabulate posterior curves and the lower confidence bounds the
	// synthesis covers demand with. Capacity is monotone in the task
	// count (adding tasks never reduces capacity in this model family),
	// so the bound is floored by the running max of observed saturated
	// capacities and kept non-decreasing — without this, the zero-mean GP
	// reverts toward the prior past the largest saturated probe and the
	// bound would collapse exactly where extrapolation matters most.
	curves := make([]OperatorCurve, m)
	lcb := make([][]float64, m)
	for i := 0; i < m; i++ {
		curves[i] = OperatorCurve{
			Operator: spec.Graph.OperatorName(i),
			Mu:       make([]float64, spec.MaxTasks),
			Sigma:    make([]float64, spec.MaxTasks),
		}
		lcb[i] = make([]float64, spec.MaxTasks)
		floor := 0.0
		for n := 1; n <= spec.MaxTasks; n++ {
			for _, pr := range probes {
				if pr.OpIndex == i && pr.Saturated && pr.Tasks == n && pr.Capacity > floor {
					floor = pr.Capacity
				}
			}
			if regs[i].Len() == 0 {
				// No saturated probe at any scale: the rest of the DAG cannot
				// feed this operator past cap(1), so one task is already
				// over-provisioned. An unbounded band records that honestly.
				curves[i].Mu[n-1] = 0
				curves[i].Sigma[n-1] = spec.YMax
				lcb[i][n-1] = bigCap
				continue
			}
			mu, variance, err := regs[i].Posterior([]float64{float64(n)})
			if err != nil {
				return nil, fmt.Errorf("planner: posterior %s n=%d: %w", curves[i].Operator, n, err)
			}
			sigma := math.Sqrt(math.Max(variance, 0))
			curves[i].Mu[n-1] = mu
			curves[i].Sigma[n-1] = sigma
			lcb[i][n-1] = math.Max(math.Max(0, mu-lcbBeta*sigma), floor)
			if n > 1 && lcb[i][n-2] > lcb[i][n-1] {
				lcb[i][n-1] = lcb[i][n-2]
			}
		}
	}

	// The greedy demand cover of the ground-truth optimum search, with
	// the fitted lower confidence bound in place of the hidden curve.
	tasks, caps, err := spec.Graph.CoverDemand(cfg.TargetRates, spec.MaxTasks,
		func(op, n int) float64 { return lcb[op][n-1] })
	if err != nil {
		return nil, err
	}
	predicted, err := spec.Graph.Throughput(cfg.TargetRates, caps)
	if err != nil {
		return nil, err
	}
	unconstrained := make([]float64, m)
	for i := range unconstrained {
		unconstrained[i] = bigCap
	}
	target, err := spec.Graph.Throughput(cfg.TargetRates, unconstrained)
	if err != nil {
		return nil, err
	}

	total := 0
	for _, n := range tasks {
		total += n
	}
	taskCPU := flink.TaskManagerSpec().CPUMilli
	// Probe spend: each probe runs the probed operator at its pinned task
	// count and every other operator at the grid maximum for probeSeconds.
	probeTaskSec := 0.0
	for _, pr := range probes {
		probeTaskSec += float64(pr.Tasks+(m-1)*spec.MaxTasks) * float64(probeSeconds)
	}
	p := &Plan{
		Workload:            spec.Name,
		Seed:                cfg.Seed,
		TargetRates:         append([]float64(nil), cfg.TargetRates...),
		SLOFraction:         sloFraction,
		Beta:                lcbBeta,
		Tasks:               tasks,
		TotalTasks:          total,
		PredictedThroughput: predicted,
		TargetThroughput:    target,
		Feasible:            predicted >= sloFraction*target,
		CostPerHour:         float64(total*taskCPU) / 1000 * cluster.DefaultPricePerCoreHour,
		ProbeCost:           probeTaskSec / 3600 * float64(taskCPU) / 1000 * cluster.DefaultPricePerCoreHour,
		Curves:              curves,
		Probes:              probes,
	}
	return p, nil
}

// fitCurves builds one GP per operator from the saturated probes. The
// kernel hyperparameters are refit by deterministic grid LML search once
// the observations are in, so sparse curves keep honest bands.
func fitCurves(cfg *Config, probes []Probe) ([]*gp.Regressor, error) {
	spec := cfg.Spec
	m := spec.Graph.NumOperators()
	capScale := spec.YMax / 3
	noiseSD := streamsim.CloudNoiseSigma * capScale
	regs := make([]*gp.Regressor, m)
	for i := 0; i < m; i++ {
		kernel, err := gp.NewSquaredExponential(float64(spec.MaxTasks)/2, capScale*capScale)
		if err != nil {
			return nil, err
		}
		regs[i], err = gp.NewRegressor(kernel, noiseSD*noiseSD, nil)
		if err != nil {
			return nil, err
		}
	}
	for _, pr := range probes {
		if !pr.Saturated {
			continue
		}
		if err := regs[pr.OpIndex].Observe([]float64{float64(pr.Tasks)}, pr.Capacity); err != nil {
			return nil, fmt.Errorf("planner: observing probe %s n=%d: %w", pr.Operator, pr.Tasks, err)
		}
	}
	grid, err := gp.DefaultHyperGrid(math.Max(float64(spec.MaxTasks-1), 1), capScale*capScale)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		if regs[i].Len() < 3 {
			continue // too few points to re-fit; keep the prior kernel
		}
		if _, _, _, err := regs[i].MaximizeLML(grid); err != nil {
			return nil, fmt.Errorf("planner: hyperfit %s: %w", spec.Graph.OperatorName(i), err)
		}
	}
	return regs, nil
}
