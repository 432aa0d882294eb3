package experiment

import (
	"errors"
	"fmt"

	"dragster/internal/baseline"
	"dragster/internal/chaos"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/flink"
	"dragster/internal/mathx"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/store"
	"dragster/internal/telemetry"
	"dragster/internal/tenant"
	"dragster/internal/ucb"
	"dragster/internal/workload"
)

// Scenario describes one experiment run.
type Scenario struct {
	Spec  *workload.Spec
	Rates workload.RateFunc
	// Slots is the number of decision slots to run (paper slot = 10 min).
	Slots int
	// SlotSeconds is the slot length in simulated seconds (default 600).
	SlotSeconds int
	// Seed drives all stochastic behaviour (default 1).
	Seed int64
	// TaskBudget bounds Σ tasks for budget experiments; 0 = unbounded.
	TaskBudget int
	// PricePerCoreHour sets the cost meter (0 keeps the cluster's
	// default price).
	PricePerCoreHour float64
	// ControllerGraph, when set, is handed to Dragster controllers instead
	// of the spec's exact graph — the Theorem 2 setting where the
	// controller works from predicted/learned throughput functions while
	// the simulator runs the ground truth.
	ControllerGraph *dag.Graph
	// VerticalScaling switches Dragster controllers to the 2-D
	// configuration space (tasks × per-pod CPU ∈ {500, 1000, 1500, 2000}m);
	// the candidates' CPU axis alone makes the tenant apply both
	// dimensions via RescaleResources.
	// Requires a spec with ResourceAware capacity models (e.g.
	// workload.WordCount2D); non-Dragster policies ignore the CPU axis.
	VerticalScaling bool
	// StreamEngine selects the substrate: "flink" (default; savepoint
	// rescaling, 30 s pause) or "storm" (flink.StormOptions: rebalance,
	// 10 s pause, homogeneous workers — §3.2 of the paper).
	StreamEngine string
	// Chaos, when set, replays the fault schedule through a seeded
	// chaos.Engine wired into the cluster, the job's rescale hooks, and
	// the monitor.
	Chaos *chaos.Spec
	// Tracer, when set, records a sim-time span trace of the run: one
	// "round" span per decision slot with the optimizer, substrate, and
	// chaos events nested inside, all stamped with the cluster clock.
	// Nil (the default) leaves every emission point a no-op, and a traced
	// run is bit-identical to an untraced one apart from the trace itself.
	// The tracer's metrics registry, when it has one, is also the run's.
	Tracer *telemetry.Tracer

	// metrics is the run's one registry (fault, retry and skip counts):
	// the tracer's when it has one, otherwise a fresh one.
	metrics *telemetry.Registry
}

func (sc *Scenario) setDefaults() error {
	if sc.Spec == nil || sc.Rates == nil {
		return errors.New("experiment: scenario needs a Spec and a RateFunc")
	}
	if sc.Slots < 1 {
		return errors.New("experiment: Slots must be ≥ 1")
	}
	if sc.SlotSeconds == 0 {
		sc.SlotSeconds = 600
	}
	if sc.SlotSeconds < 1 {
		return errors.New("experiment: SlotSeconds must be ≥ 1")
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.PricePerCoreHour < 0 {
		return errors.New("experiment: negative price")
	}
	if sc.StreamEngine == "" {
		sc.StreamEngine = "flink"
	}
	if sc.StreamEngine != "flink" && sc.StreamEngine != "storm" {
		return fmt.Errorf("experiment: unknown stream engine %q", sc.StreamEngine)
	}
	if sc.StreamEngine == "storm" && sc.VerticalScaling {
		return errors.New("experiment: storm workers are homogeneous; vertical scaling unavailable")
	}
	if sc.Chaos != nil {
		if err := sc.Chaos.Validate(); err != nil {
			return err
		}
	}
	if sc.metrics = sc.Tracer.Metrics(); sc.metrics == nil {
		sc.metrics = telemetry.NewRegistry()
	}
	return nil
}

// PolicyFactory builds an Autoscaler for a scenario.
type PolicyFactory func(sc *Scenario) (core.Autoscaler, error)

// DragsterSaddle builds the Dragster controller with the online saddle
// point level-1 algorithm.
func DragsterSaddle() PolicyFactory { return dragsterFactory(osp.SaddlePoint, ucb.Extended) }

// DragsterOGD builds the Dragster controller with online gradient descent.
func DragsterOGD() PolicyFactory { return dragsterFactory(osp.GradientDescent, ucb.Extended) }

// DragsterConventionalUCB is the ablation variant using conventional
// (maximum-seeking) GP-UCB instead of the extended target-tracking rule.
func DragsterConventionalUCB() PolicyFactory {
	return dragsterFactory(osp.SaddlePoint, ucb.Conventional)
}

func dragsterFactory(method osp.Method, acq ucb.Acquisition) PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		cfg := tenant.ControllerConfig(sc.Spec)
		if sc.ControllerGraph != nil {
			cfg.Graph = sc.ControllerGraph
		}
		if sc.VerticalScaling {
			var err error
			if cfg.Candidates, err = resourceCandidates(sc.Spec); err != nil {
				return nil, err
			}
		}
		cfg.Method = method
		cfg.TaskBudget = sc.TaskBudget
		cfg.Acquisition = acq
		cfg.Counters = sc.metrics
		return core.New(cfg)
	}
}

// resourceCandidates builds the 2-D (tasks, cpuMilli) grid per operator.
func resourceCandidates(spec *workload.Spec) ([][][]float64, error) {
	grid, err := store.Grid2D(1, spec.MaxTasks, 500, 2000, 500)
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, spec.Graph.NumOperators())
	for i := range out {
		out[i] = grid
	}
	return out, nil
}

// DhalionPolicy builds the rule-based baseline.
func DhalionPolicy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDhalion(sc.Spec.MaxTasks, sc.TaskBudget)
	}
}

// DaedalusPolicy builds the utilization-model baseline (the capacity
// experiment's self-adaptive comparator).
func DaedalusPolicy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDaedalus(sc.Spec.MaxTasks, sc.TaskBudget)
	}
}

// DS2Policy builds the proportional-controller baseline.
func DS2Policy() PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		return baseline.NewDS2(sc.Spec.MaxTasks)
	}
}

// StaticPolicy keeps a fixed configuration (the paper's "without elastic
// scaling" reference behind the 5X–6X claim).
func StaticPolicy(tasks []int) PolicyFactory {
	return func(sc *Scenario) (core.Autoscaler, error) {
		if len(tasks) != sc.Spec.Graph.NumOperators() {
			return nil, fmt.Errorf("experiment: static policy got %d tasks, want %d", len(tasks), sc.Spec.Graph.NumOperators())
		}
		return staticPolicy{tasks: append([]int(nil), tasks...)}, nil
	}
}

type staticPolicy struct{ tasks []int }

func (s staticPolicy) Name() string { return "static" }
func (s staticPolicy) Decide(*monitor.Snapshot) ([]int, error) {
	return append([]int(nil), s.tasks...), nil
}

// SlotTrace records one slot of one run.
type SlotTrace struct {
	Slot               int
	Rates              []float64
	Tasks              []int // effective parallelism during the slot
	CPUMilli           []int // per-pod CPU during the slot
	TotalTasks         int
	SteadyThroughput   float64 // noise-free steady throughput of Tasks
	MeasuredThroughput float64 // what the sink actually saw (pauses, noise)
	Processed          float64 // tuples absorbed this slot
	Dropped            float64
	PausedSeconds      int
	CostCum            float64   // dollars accrued up to slot end
	AvgLatencySec      float64   // Little's-law end-to-end latency estimate
	TargetY            []float64 // Dragster level-1 targets (nil otherwise)
	Violations         []float64 // realized l_i per operator
}

// Result is a full run of one policy on one scenario.
type Result struct {
	Policy   string
	Workload string
	Slots    int
	SlotSecs int
	Trace    []SlotTrace
	// PhaseStarts are the slots where the offered load changes (incl. 0).
	PhaseStarts []int
	// OptimaByPhase maps each phase-start slot to the optimal steady state
	// under that phase's rates (and the scenario budget).
	OptimaByPhase map[int]*Optimum
	// Metrics is the run's metrics registry: fault, retry and skip
	// counts, plus the tracer's metrics on a traced run.
	Metrics *telemetry.Registry
}

// optimumAt returns the optimum of the phase holding slot, the one keyed
// by the last phase start at or before it; nil when there is none.
func (res *Result) optimumAt(slot int) *Optimum {
	best := -1
	for _, ps := range res.PhaseStarts {
		if ps <= slot && ps > best {
			best = ps
		}
	}
	return res.OptimaByPhase[best]
}

// Runner executes a scenario one decision slot at a time. Use it when a
// caller (e.g. perfbench's paper-yahoo workload) needs to observe or time
// individual slots; Run wraps it for batch execution. It drives one
// tenant on a private cluster.
type Runner struct {
	sc    Scenario
	t     *tenant.Tenant
	chaos *chaos.Engine
	res   *Result
}

// NewRunner validates the scenario, builds the full stack (cluster,
// substrate, and the tenant's engine, job, monitor and policy) and
// precomputes the per-phase optima.
func NewRunner(sc Scenario, factory PolicyFactory) (*Runner, error) {
	if err := sc.setDefaults(); err != nil {
		return nil, err
	}
	spec := sc.Spec
	policy, err := factory(&sc)
	if err != nil {
		return nil, err
	}

	// Size the cluster generously; budgets are policy decisions, matching
	// the paper's dollar-budget formulation rather than a hardware wall.
	nNodes := (spec.Graph.NumOperators()*spec.MaxTasks+1)/4 + 1
	var price []cluster.Option
	if sc.PricePerCoreHour > 0 {
		price = append(price, cluster.WithPricePerCoreHour(sc.PricePerCoreHour))
	}
	k8s := cluster.New(price...)
	if err := k8s.AddNodes("node", nNodes, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		return nil, err
	}
	// Spans are stamped with the simulation clock, never wall time, so a
	// fixed seed reproduces the trace byte for byte.
	sc.Tracer.SetClock(k8s.Clock)
	k8s.SetTracer(sc.Tracer)
	tc := tenant.Config{
		Name:     spec.Name,
		Workload: spec,
		Rates:    sc.Rates,
		Horizon:  sc.Slots,
		Seed:     sc.Seed,
		Policy:   policy,
		Metrics:  sc.metrics,
		Tracer:   sc.Tracer,
	}
	opts := flink.DefaultOptions()
	if sc.StreamEngine == "storm" {
		opts = flink.StormOptions()
	}
	if tc.Session, err = flink.NewSession(k8s, opts); err != nil {
		return nil, err
	}
	t, err := tenant.New(tc)
	if err != nil {
		return nil, err
	}
	var chaosEng *chaos.Engine
	if sc.Chaos != nil {
		chaosEng, err = chaos.NewEngine(sc.Chaos, sc.Seed+chaos.SeedOffset, sc.metrics)
		if err != nil {
			return nil, err
		}
		chaosEng.SetTracer(sc.Tracer)
		if err := chaosEng.Install(k8s, t.Flink(), t.Monitor()); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Policy:        policy.Name(),
		Workload:      spec.Name,
		Slots:         sc.Slots,
		SlotSecs:      sc.SlotSeconds,
		PhaseStarts:   workload.PhaseBoundaries(sc.Rates, sc.Slots),
		OptimaByPhase: make(map[int]*Optimum),
		Metrics:       sc.metrics,
	}
	for _, ps := range res.PhaseStarts {
		opt, err := OptimalConfig(spec, sc.Rates(ps, 0), sc.TaskBudget)
		if err != nil {
			return nil, err
		}
		res.OptimaByPhase[ps] = opt
	}
	return &Runner{sc: sc, t: t, chaos: chaosEng, res: res}, nil
}

// ChaosTrace returns the deterministic fault trace so far (nil without a
// chaos spec).
func (r *Runner) ChaosTrace() []chaos.TraceEntry {
	if r.chaos == nil {
		return nil
	}
	return r.chaos.Trace()
}

// Result returns the result accumulated so far (shared, not a copy).
func (r *Runner) Result() *Result { return r.res }

// Done reports whether every slot has run.
func (r *Runner) Done() bool { return r.t.Slot() >= r.sc.Slots }

// Step runs one decision slot: simulate, observe, decide, rescale. It
// returns the slot's trace entry, which is also appended to Result().
func (r *Runner) Step() (*SlotTrace, error) {
	if r.Done() {
		return nil, errors.New("experiment: runner already finished")
	}
	sc := &r.sc
	slot := r.t.Slot()

	sc.Tracer.SetSlot(slot)
	round := sc.Tracer.Begin("experiment", "round", telemetry.Int("slot", slot))
	defer round.End()
	if r.chaos != nil {
		r.chaos.BeginSlot(slot)
	}
	rep, use, err := r.t.RunSlot(sc.SlotSeconds, true)
	if err != nil {
		return nil, err
	}
	tr := SlotTrace{
		Slot:               slot,
		Rates:              append([]float64(nil), r.t.Rates()...),
		Tasks:              use.Tasks,
		CPUMilli:           use.CPUMilli,
		TotalTasks:         mathx.SumInts(use.Tasks),
		SteadyThroughput:   use.Steady,
		MeasuredThroughput: rep.Throughput,
		Processed:          rep.ProcessedTuples,
		Dropped:            rep.DroppedTuples,
		PausedSeconds:      rep.PausedSeconds,
		CostCum:            rep.CostSoFar,
		AvgLatencySec:      rep.AvgLatencySec,
		Violations:         append([]float64(nil), use.Violations...),
	}

	r.annotateRound(round, &tr)
	fresh, err := r.t.Collect()
	if err != nil {
		return nil, err
	}
	if !fresh {
		// Metrics blackout or stale repeat: the round is skipped and the
		// current configuration kept.
		sc.metrics.Inc("runner_skipped_rounds")
		round.Annotate(telemetry.Str("outcome", "skipped"))
		r.res.Trace = append(r.res.Trace, tr)
		return &r.res.Trace[len(r.res.Trace)-1], nil
	}
	if err := r.t.Decide(); err != nil {
		return nil, err
	}
	tr.TargetY = r.t.TargetY()
	r.res.Trace = append(r.res.Trace, tr)
	if !r.Done() {
		if err := r.t.Apply(); err != nil {
			return nil, err
		}
	}
	sc.Tracer.Metrics().Inc("experiment_rounds")
	return &r.res.Trace[len(r.res.Trace)-1], nil
}

// annotateRound attaches the slot's outcome metrics — including the
// per-round regret against the current phase's precomputed optimum — to
// the round span.
func (r *Runner) annotateRound(round *telemetry.Span, tr *SlotTrace) {
	var opt float64
	if o := r.res.optimumAt(tr.Slot); o != nil {
		opt = o.Throughput
	}
	round.Annotate(
		telemetry.Ints("tasks", tr.Tasks),
		telemetry.Float("steady", tr.SteadyThroughput),
		telemetry.Float("measured", tr.MeasuredThroughput),
		telemetry.Float("optimal", opt),
		telemetry.Float("regret", opt-tr.SteadyThroughput),
		telemetry.Float("cost", tr.CostCum))
}

// Run executes the scenario under the policy built by factory.
func Run(sc Scenario, factory PolicyFactory) (*Result, error) {
	r, err := NewRunner(sc, factory)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if _, err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}
