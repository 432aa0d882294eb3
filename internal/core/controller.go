// Package core assembles Dragster's two-level online optimizer
// (Algorithm 2 of the paper) into a slot-by-slot controller:
//
//  1. observe last slot's application throughput, per-operator throughput
//     and Eq. 8 capacity samples (from the Job Monitor);
//  2. update the dual variables (Eq. 15) and solve the online saddle
//     point / online gradient descent problem (Eq. 14 / Eq. 16) for the
//     target capacity vector y_t;
//  3. identify bottleneck operators (those whose target deviates from
//     their current estimated capacity);
//  4. for each bottleneck, select the next configuration with the
//     extended GP-UCB acquisition (Eq. 18) and project the joint choice
//     onto the resource budget (Eq. 9d).
//
// The controller implements the Autoscaler interface shared with the
// baselines, so the experiment harness can drive any policy uniformly.
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"dragster/internal/dag"
	"dragster/internal/gp"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/store"
	"dragster/internal/telemetry"
	"dragster/internal/ucb"
)

// Autoscaler is a per-slot scaling policy. Decide consumes the monitor
// snapshot of the slot that just finished and returns the desired task
// count per operator (dense operator-index order) for the next slot.
type Autoscaler interface {
	Name() string
	Decide(snap *monitor.Snapshot) ([]int, error)
}

// Config assembles a Dragster controller.
type Config struct {
	// Graph is the application DAG with its (known or predicted)
	// throughput functions — the Theorem 1 / Theorem 2 input.
	Graph *dag.Graph
	// Method selects the level-1 algorithm (saddle point or OGD).
	Method osp.Method
	// Candidates lists the configuration candidates per operator (dense
	// operator index). The first component of every candidate is the task
	// count. Defaults to the paper's 1..10 task grid when nil.
	Candidates [][][]float64
	// TaskBudget bounds Σ_i tasks_i (Eq. 9d). 0 disables the budget.
	TaskBudget int
	// YMax bounds target capacities; pick ≥ the largest plausible operator
	// capacity (required).
	YMax float64
	// NoiseVar is the GP observation noise σ² on Eq. 8 capacity samples
	// (required; the square of roughly NoiseSigma·capacity-scale).
	NoiseVar float64
	// Acquisition selects extended (default) or conventional GP-UCB.
	Acquisition ucb.Acquisition
	// History is replayed into the GPs at construction (warm start), in
	// slice order, each record into its operator's searcher. Records of
	// operators the graph lacks, or with CapacityObs ≤ 0, are skipped.
	History []store.Record
	// DB, when set, receives one record per operator per slot.
	DB *store.DB
	// Counters, when set, receives fault-handling telemetry
	// (core_stale_snapshot_skips, core_rejected_capacity_obs,
	// core_rejected_throughput_obs). The
	// experiment runner and the fleet hand every component of a run the
	// same registry, so a run's whole fault story lives in one snapshot.
	Counters *telemetry.Registry
}

// bottleneckTol is the relative target-vs-estimate deviation above which
// an operator is reconfigured.
const bottleneckTol = 0.1

// minObserveUtil skips GP observations from nearly idle slots, whose
// Eq. 8 estimate badly underestimates capacity.
const minObserveUtil = 0.15

// multiDimRefitEvery is how many observations an operator with ≥2-D
// candidates (tasks × CPU) takes between re-fits of its GP kernel
// hyperparameters. Its candidate set is several times larger than the
// task grid and the prior variance is sized for the largest
// configurations, so without re-fits the exploration bonus dominates the
// tracking term for most of a run. The 1-D defaults are well calibrated
// for the built-in workloads and are never re-fit.
const multiDimRefitEvery = 6

// explorationScale shrinks the GP-UCB exploration bonus (see
// ucb.Config.ExplorationScale; 1 is the raw theoretical schedule). The
// paper's sklearn implementation normalizes targets, which has the same
// effect.
const explorationScale = 0.1

// Controller is the Dragster optimization engine.
type Controller struct {
	cfg       Config
	g         *dag.Graph
	level1    *osp.Optimizer
	searchers []*ucb.Searcher
	maxTasks  []int   // largest candidate task count per operator
	byTasks   [][]int // byTasks[op][n]: op's first candidate with n tasks, or -1
	lastTasks []int
	lastCPU   []int // last observed per-pod CPU (0 = unknown/1-D configs)
	// cpuAxis is set when some operator's candidates carry a CPU
	// dimension; only then does DecideDetailed return CPU allocations.
	cpuAxis bool
	// Stale-metric guard: a snapshot whose slot does not advance past the
	// last decided one is a repeat (metrics staleness) and is skipped
	// wholesale rather than re-fed into the GPs and dual updates.
	seenSnap     bool
	lastSnapSlot int
	staleSkips   int

	// tracer is the nil-safe observability hook; see internal/telemetry.
	tracer *telemetry.Tracer
}

// SetTracer installs (or, with nil, removes) the observability tracer,
// propagating it to every per-operator searcher (labelled by operator
// name). Each decide pass becomes one "decide" span with child
// spans for the level-1 step and the budget projection; GP observe/refit
// and UCB select events nest inside it automatically.
func (c *Controller) SetTracer(tr *telemetry.Tracer) {
	c.tracer = tr
	for i, s := range c.searchers {
		s.SetTracer(tr, c.g.OperatorName(i))
	}
}

// New validates cfg and builds the controller, warm-starting its GPs
// from cfg.History.
func New(cfg Config) (*Controller, error) {
	if cfg.Graph == nil {
		return nil, errors.New("core: nil graph")
	}
	m := cfg.Graph.NumOperators()
	if cfg.YMax <= 0 || math.IsNaN(cfg.YMax) || math.IsInf(cfg.YMax, 0) {
		return nil, errors.New("core: YMax must be positive")
	}
	if cfg.NoiseVar <= 0 {
		return nil, errors.New("core: NoiseVar must be positive")
	}
	if cfg.Candidates == nil {
		grid, err := store.TaskGrid(1, 10)
		if err != nil {
			return nil, err
		}
		cfg.Candidates = make([][][]float64, m)
		for i := range cfg.Candidates {
			cfg.Candidates[i] = grid
		}
	}
	if len(cfg.Candidates) != m {
		return nil, fmt.Errorf("core: got candidate lists for %d operators, want %d", len(cfg.Candidates), m)
	}
	for i, cands := range cfg.Candidates {
		name := cfg.Graph.OperatorName(i)
		if len(cands) == 0 {
			return nil, fmt.Errorf("core: operator %s has no candidates", name)
		}
		for _, c := range cands {
			if len(c) == 0 {
				return nil, fmt.Errorf("core: operator %s has an empty candidate", name)
			}
			if len(c) != len(cands[0]) {
				return nil, fmt.Errorf("core: operator %s mixes %d- and %d-dimensional candidates", name, len(cands[0]), len(c))
			}
		}
	}
	if cfg.TaskBudget < 0 {
		return nil, errors.New("core: negative TaskBudget")
	}
	if cfg.TaskBudget > 0 && cfg.TaskBudget < m {
		return nil, fmt.Errorf("core: budget %d cannot host %d operators", cfg.TaskBudget, m)
	}

	level1, err := osp.New(cfg.Graph, osp.Config{Method: cfg.Method, YMax: cfg.YMax})
	if err != nil {
		return nil, err
	}

	c := &Controller{
		cfg:       cfg,
		g:         cfg.Graph,
		level1:    level1,
		searchers: make([]*ucb.Searcher, m),
		maxTasks:  make([]int, m),
		byTasks:   make([][]int, m),
		lastTasks: make([]int, m),
		lastCPU:   make([]int, m),
	}
	capScale := cfg.YMax // kernel variance in capacity units²
	for i := 0; i < m; i++ {
		refitEvery := 0
		if len(cfg.Candidates[i][0]) > 1 {
			c.cpuAxis = true
			refitEvery = multiDimRefitEvery
		}
		s, err := ucb.NewSearcher(ucb.Config{
			NoiseVar:         cfg.NoiseVar,
			Candidates:       cfg.Candidates[i],
			Acquisition:      cfg.Acquisition,
			Kernel:           capacityKernel(cfg.Candidates[i], capScale),
			ExplorationScale: explorationScale,
			RefitEvery:       refitEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("core: operator %d searcher: %w", i, err)
		}
		c.searchers[i] = s
		c.lastTasks[i] = int(math.Round(cfg.Candidates[i][0][0]))
		c.maxTasks[i], c.byTasks[i] = taskIndex(cfg.Candidates[i])
	}
	if err := c.warmStart(); err != nil {
		return nil, err
	}
	c.cfg.History = nil // replayed; the controller holds no caller records
	return c, nil
}

// taskIndex returns the largest task count among cands (at least 1) and,
// for every count n up to it, the index of the first candidate with
// exactly n tasks, or -1.
func taskIndex(cands [][]float64) (maxN int, first []int) {
	maxN = 1
	for _, cand := range cands {
		if n := int(math.Round(cand[0])); n > maxN {
			maxN = n
		}
	}
	first = make([]int, maxN+1)
	for n := range first {
		first[n] = -1
	}
	for k := len(cands) - 1; k >= 0; k-- { // the first one wins
		if n := math.Round(cands[k][0]); n == cands[k][0] && n >= 0 && n <= float64(maxN) {
			first[int(n)] = k
		}
	}
	return maxN, first
}

// capacityKernel builds a kernel whose per-dimension length scales span
// ~25% of each candidate axis and whose variance matches the capacity
// scale, so prior uncertainty is meaningful in tuples/s units and a
// multi-dimensional configuration space (tasks × CPU) generalizes along
// every axis.
func capacityKernel(cands [][]float64, capScale float64) gp.Kernel {
	dim := len(cands[0])
	scales := make([]float64, dim)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range cands {
			if c[d] < lo {
				lo = c[d]
			}
			if c[d] > hi {
				hi = c[d]
			}
		}
		scales[d] = math.Max(0.25*(hi-lo), 0.5)
	}
	variance := (capScale / 3) * (capScale / 3)
	if dim == 1 {
		k, err := gp.NewSquaredExponential(scales[0], variance)
		if err != nil {
			// Parameters above are positive by construction; unreachable.
			panic(err)
		}
		return k
	}
	k, err := gp.NewARDSquaredExponential(scales, variance)
	if err != nil {
		panic(err) // unreachable, as above
	}
	return k
}

// warmStart replays cfg.History into the per-operator GPs in one pass.
// Each searcher sees its operator's records in slice order, so the
// replay does not depend on how records of different operators
// interleave.
func (c *Controller) warmStart() error {
	for k, r := range c.cfg.History {
		if r.CapacityObs <= 0 {
			continue
		}
		i := c.operatorIndex(r.Operator)
		if i < 0 {
			continue
		}
		if err := c.searchers[i].Observe(r.Config, r.CapacityObs); err != nil {
			return fmt.Errorf("core: warm start record %d (operator %s): %w", k, r.Operator, err)
		}
	}
	return nil
}

// operatorIndex returns the dense index of the named operator, or -1.
func (c *Controller) operatorIndex(name string) int {
	for i := 0; i < c.g.NumOperators(); i++ {
		if c.g.OperatorName(i) == name {
			return i
		}
	}
	return -1
}

// Name implements Autoscaler.
func (c *Controller) Name() string {
	return "dragster-" + c.cfg.Method.String()
}

// Searcher exposes the per-operator GP-UCB searcher (diagnostics,
// information-gain accounting in the regret experiments).
func (c *Controller) Searcher(i int) *ucb.Searcher { return c.searchers[i] }

// Duals returns the level-1 dual variables without copying, under
// osp.Optimizer.Duals' contract: read-only, valid until the next
// decision.
func (c *Controller) Duals() []float64 { return c.level1.Duals() }

// SetTaskBudget re-partitions this controller's share of a shared
// cluster budget: subsequent decisions project onto Σ_i tasks_i ≤ budget
// (0 disables the projection). Reserved for the fleet arbiter
// (internal/fleet) — uncoordinated per-job budget edits would break the
// fleet-wide Σ_jobs Σ_i tasks ≤ B invariant, and dragsterlint's fleethook
// analyzer enforces that restriction.
func (c *Controller) SetTaskBudget(budget int) error {
	if budget < 0 {
		return errors.New("core: negative TaskBudget")
	}
	if budget > 0 && budget < c.g.NumOperators() {
		return fmt.Errorf("core: budget %d cannot host %d operators", budget, c.g.NumOperators())
	}
	c.cfg.TaskBudget = budget
	return nil
}

// StaleSkips returns how many optimizer rounds were skipped because the
// snapshot's slot had already been decided (stale metrics).
func (c *Controller) StaleSkips() int { return c.staleSkips }

// isFiniteObservation reports whether an Eq. 8 sample is usable: finite
// capacity and utilization. (Non-positive capacity is filtered separately
// — it is a valid "operator idle" signal, not garbage.)
func isFiniteObservation(capacityObs, util float64) bool {
	return !math.IsNaN(capacityObs) && !math.IsInf(capacityObs, 0) &&
		!math.IsNaN(util) && !math.IsInf(util, 0)
}

// LastTargets is set by Decide; see Decide.
type LastTargets struct {
	Y           []float64 // level-1 target capacities
	Bottlenecks []int     // operator indices reconfigured this slot
	Beta        float64   // UCB weight used (last bottleneck)
}

var errNoSnapshot = errors.New("core: nil snapshot")

// Decide implements Autoscaler: one pass of Algorithm 2.
func (c *Controller) Decide(snap *monitor.Snapshot) ([]int, error) {
	tasks, _, _, err := c.DecideDetailed(snap)
	return tasks, err
}

// DecideDetailed is Decide plus the per-pod CPU millicores of the
// selected configurations and diagnostics (targets, bottleneck set).
// cpuMilli is nil unless some operator's candidates carry a CPU axis;
// then it holds 0 for the operators whose candidates do not.
func (c *Controller) DecideDetailed(snap *monitor.Snapshot) (tasks, cpuMilli []int, diag *LastTargets, err error) {
	cfgs, diag, err := c.decideConfigs(snap)
	if err != nil {
		return nil, nil, nil, err
	}
	tasks = make([]int, len(cfgs))
	if c.cpuAxis {
		cpuMilli = make([]int, len(cfgs))
	}
	for i, v := range cfgs {
		tasks[i] = int(math.Round(v[0]))
		if len(v) > 1 {
			cpuMilli[i] = int(math.Round(v[1]))
		}
	}
	return tasks, cpuMilli, diag, nil
}

// decideConfigs runs one Algorithm 2 pass and returns the full selected
// configuration vector per operator (first component = task count; extra
// components, e.g. CPU millicores, preserved from the candidate space).
func (c *Controller) decideConfigs(snap *monitor.Snapshot) ([][]float64, *LastTargets, error) {
	if snap == nil {
		return nil, nil, errNoSnapshot
	}
	m := c.g.NumOperators()
	if len(snap.Operators) != m {
		return nil, nil, fmt.Errorf("core: snapshot has %d operators, want %d", len(snap.Operators), m)
	}
	if len(snap.SourceRates) != c.g.NumSources() {
		return nil, nil, fmt.Errorf("core: snapshot has %d source rates, want %d", len(snap.SourceRates), c.g.NumSources())
	}
	sp := c.tracer.Begin("core", "decide", telemetry.Int("snap_slot", snap.Slot))
	defer sp.End()
	if c.seenSnap && snap.Slot <= c.lastSnapSlot {
		// Stale metrics: this slot was already decided. Skip the round —
		// observing the same noisy samples twice would bias the GPs and
		// double-count dual violations — and hold the current configuration.
		c.staleSkips++
		sp.Annotate(telemetry.Str("outcome", "stale_skip"))
		c.cfg.Counters.Inc("core_stale_snapshot_skips")
		chosen := make([][]float64, m)
		for i := range chosen {
			chosen[i] = c.configFor(i, c.lastTasks[i], c.lastCPU[i])
		}
		return chosen, &LastTargets{}, nil
	}
	c.seenSnap, c.lastSnapSlot = true, snap.Slot

	// (1) Feed Eq. 8 capacity samples into the GPs and the history DB.
	for i, om := range snap.Operators {
		cfgVec := c.configFor(i, om.Tasks, om.CPUMilli)
		if !isFiniteObservation(om.CapacityObs, om.Util) {
			// Garbage from a misbehaving metrics path (NaN/Inf capacity or
			// utilization) must never reach the GP or the store.
			c.cfg.Counters.Inc("core_rejected_capacity_obs")
			c.lastTasks[i] = om.Tasks
			c.lastCPU[i] = om.CPUMilli
			continue
		}
		if om.Util >= minObserveUtil && om.CapacityObs > 0 {
			if err := c.searchers[i].Observe(cfgVec, om.CapacityObs); err != nil {
				return nil, nil, err
			}
		}
		if c.cfg.DB != nil {
			if err := c.cfg.DB.Append(store.Record{
				Slot:        snap.Slot,
				Operator:    om.Name,
				Config:      cfgVec,
				Throughput:  snap.Throughput,
				CapacityObs: om.CapacityObs,
				Util:        om.Util,
			}); err != nil {
				return nil, nil, err
			}
		}
		c.lastTasks[i] = om.Tasks
		c.lastCPU[i] = om.CPUMilli
	}

	// (1b) Theorem 2: fit any learned throughput functions. The regression
	// input is the *consumed* rate, not the arrival rate: the emitted
	// output is h(consumed) regardless of capacity truncation or backlog
	// draining, so every slot is an unbiased sample (exactly for linear h,
	// approximately for concave forms).
	ops := c.g.Operators()
	for i, om := range snap.Operators {
		if om.ConsumedRate <= 0 {
			continue
		}
		for _, ei := range c.g.SuccEdgeIDs(ops[i]) {
			if learner, ok := c.g.HByID(ei).(dag.ThroughputLearner); ok {
				// Per-edge output approximated by the α split of the
				// aggregate; the learner rejects invalid samples, which we
				// count rather than silently drop: a high count means the
				// monitor is feeding the Theorem-2 regression garbage.
				if err := learner.ObserveRates(om.ConsumedRate, om.OutRate*c.g.AlphaByID(ei)); err != nil {
					c.cfg.Counters.Inc("core_rejected_throughput_obs")
				}
			}
		}
	}

	// (2) Dual update from realized violations l_i = demand_i − c_i, with
	// demand computed by pushing the observed offered load through the
	// (known/predicted) throughput functions at the observed capacities.
	capObs := make([]float64, m)
	for i, om := range snap.Operators {
		if math.IsNaN(om.CapacityObs) || math.IsInf(om.CapacityObs, 0) {
			continue // rejected above; treat as zero observed capacity
		}
		capObs[i] = math.Max(om.CapacityObs, 0)
	}
	rep, err := c.g.Evaluate(snap.SourceRates, capObs)
	if err != nil {
		return nil, nil, err
	}
	viol := make([]float64, m)
	for i := range viol {
		viol[i] = rep.Demand[i] - capObs[i]
	}
	ospSpan := c.tracer.Begin("osp", "step", telemetry.Str("method", c.cfg.Method.String()))
	if err := c.level1.ObserveViolations(viol); err != nil {
		ospSpan.End()
		return nil, nil, err
	}

	// (3) Level 1: target capacities from last slot's objective (§4.2.1:
	// the objective is only known one slot later).
	y, err := c.level1.Step(snap.SourceRates)
	if err != nil {
		ospSpan.End()
		return nil, nil, err
	}
	if c.tracer != nil { // untraced decides format nothing
		ospSpan.Annotate(telemetry.Str("y", fmtFloats(y)))
	}
	ospSpan.End()
	c.tracer.Metrics().Inc("osp_steps")

	// (4) Bottlenecks: operators whose current estimated capacity deviates
	// from the target. The estimate prefers the GP posterior mean at the
	// current configuration and falls back to the raw observation.
	est := make([]float64, m)
	for i := range est {
		mu, err := c.searchers[i].Mean(c.configFor(i, c.lastTasks[i], c.lastCPU[i]))
		if err == nil {
			est[i] = mu
		} else {
			est[i] = capObs[i]
		}
	}
	bottlenecks, err := osp.Bottlenecks(y, est, bottleneckTol)
	if err != nil {
		return nil, nil, err
	}
	c.tracer.Event("core", "bottlenecks", telemetry.Int("count", len(bottlenecks)))

	// (5) Level 2: extended GP-UCB per bottleneck operator.
	chosen := make([][]float64, m)
	for i := range chosen {
		chosen[i] = c.configFor(i, c.lastTasks[i], c.lastCPU[i])
	}
	diag := &LastTargets{Y: y, Bottlenecks: bottlenecks}
	for _, i := range bottlenecks {
		x, _, beta, err := c.searchers[i].Select(y[i])
		if errors.Is(err, ucb.ErrNoData) {
			continue // cold start: keep the current configuration
		}
		if err != nil {
			return nil, nil, err
		}
		chosen[i] = x
		diag.Beta = beta
	}

	// (6) Budget projection Π_X (Eq. 9d): first trim to feasibility, then
	// rebalance tasks across operators by hill-climbing the DAG-predicted
	// throughput at the GP posterior means — the "balance the capacity
	// among Map and Shuffle" behaviour of §6.2 that Dhalion lacks.
	if c.cfg.TaskBudget > 0 {
		projSpan := c.tracer.Begin("core", "project", telemetry.Int("budget", c.cfg.TaskBudget))
		desired := make([]int, m)
		for i, v := range chosen {
			desired[i] = int(math.Round(v[0]))
		}
		loss := func(op, from int) float64 { return c.taskLoss(op, from, y[op]) }
		desired, err = ucb.ProjectTasks(desired, c.cfg.TaskBudget, 1, loss)
		if err != nil {
			projSpan.End()
			return nil, nil, err
		}
		desired = c.rebalanceUnderBudget(desired, snap.SourceRates)
		for i, n := range desired {
			chosen[i] = c.nearestWithTasks(i, n, chosen[i])
		}
		projSpan.Annotate(telemetry.Ints("tasks", desired))
		projSpan.End()
	}
	c.tracer.Metrics().Inc("core_decides")
	return chosen, diag, nil
}

// fmtFloats renders a float slice with the canonical shortest formatting
// used by telemetry attributes.
func fmtFloats(vs []float64) string {
	var b []byte
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, ']')
	return string(b)
}

// rebalanceUnderBudget hill-climbs single-task moves between operators
// while the DAG model predicts a throughput improvement, holding the
// total at or below the budget. Prediction uses optimistic (UCB)
// capacities so unexplored operators still attract tasks; when any
// operator's GP is still empty the step is skipped (cold start).
//
// caps holds the optimistic capacities of the current allocation; a
// trial move reads only the two operators it changes. The searchers'
// posterior tables serve every read at a grid point, and nothing they
// read changes inside one call.
func (c *Controller) rebalanceUnderBudget(tasks []int, rates []float64) []int {
	m := len(tasks)
	optimistic := func(op, n int) (float64, bool) {
		opt, err := c.searchers[op].OptimisticAt(c.configFor(op, n, c.lastCPU[op]))
		return math.Max(opt, 0), err == nil
	}
	caps := make([]float64, m)
	for i, n := range tasks {
		v, ok := optimistic(i, n)
		if !ok {
			return tasks
		}
		caps[i] = v
	}
	var rep dag.FlowReport
	if err := c.g.EvaluateInto(&rep, rates, caps); err != nil {
		return tasks
	}
	cur := rep.Throughput
	out := append([]int(nil), tasks...)
	for improved := true; improved; {
		improved = false
		for from := 0; from < m; from++ {
			for to := 0; to < m; to++ {
				if from == to || out[from] <= 1 || out[to] >= c.maxTasks[to] {
					continue
				}
				capFrom, okFrom := optimistic(from, out[from]-1)
				capTo, okTo := optimistic(to, out[to]+1)
				if !okFrom || !okTo {
					continue
				}
				oldFrom, oldTo := caps[from], caps[to]
				caps[from], caps[to] = capFrom, capTo
				if err := c.g.EvaluateInto(&rep, rates, caps); err == nil && rep.Throughput > cur*(1+1e-6) {
					cur = rep.Throughput
					out[from]--
					out[to]++
					improved = true
				} else {
					caps[from], caps[to] = oldFrom, oldTo
				}
			}
		}
	}
	return out
}

// taskLoss estimates how much removing one task from operator op (at
// `from` tasks) increases its shortfall against target: the projection
// trims tasks where the GP says capacity is least needed. It reads only
// posterior means, so it skips the variance's triangular solve.
func (c *Controller) taskLoss(op, from int, target float64) float64 {
	muFrom, errA := c.searchers[op].Mean(c.configFor(op, from, c.lastCPU[op]))
	muTo, errB := c.searchers[op].Mean(c.configFor(op, from-1, c.lastCPU[op]))
	if errA != nil || errB != nil {
		// No data yet: assume linear capacity in tasks so trimming larger
		// allocations first is neutral.
		return 1
	}
	shortfall := func(mu float64) float64 { return math.Max(0, target-mu) }
	// Primary term: growth in shortfall; secondary: raw capacity loss.
	return (shortfall(muTo)-shortfall(muFrom))*1000 + math.Max(0, muFrom-muTo)
}

// configFor maps an observed (tasks, cpuMilli) allocation onto the
// operator's candidate space: the nearest candidate by task count (and by
// CPU for ≥2-dimensional candidates), with the first component forced to
// the observed task count. cpuMilli 0 means unknown. When nothing is
// forced the candidate itself is returned, not a copy: callers only read
// it.
func (c *Controller) configFor(op, tasks, cpuMilli int) []float64 {
	cands := c.cfg.Candidates[op]
	if (cpuMilli <= 0 || len(cands[0]) == 1) && tasks >= 0 && tasks < len(c.byTasks[op]) {
		// Only the task axis counts, and a candidate at distance 0 wins
		// the scan below: the first one with this task count.
		if i := c.byTasks[op][tasks]; i >= 0 {
			return cands[i]
		}
	}
	dist := func(cand []float64) float64 {
		d := math.Abs(cand[0] - float64(tasks))
		if len(cand) > 1 && cpuMilli > 0 {
			// Normalize the CPU axis so one task step ≈ one 500m CPU step.
			d += math.Abs(cand[1]-float64(cpuMilli)) / 500
		}
		return d
	}
	best := cands[0]
	bestD := dist(cands[0])
	for _, cand := range cands[1:] {
		if d := dist(cand); d < bestD {
			best, bestD = cand, d
		}
	}
	if best[0] == float64(tasks) && (len(best) == 1 || cpuMilli <= 0 || best[1] == float64(cpuMilli)) {
		return best
	}
	out := append([]float64(nil), best...)
	out[0] = float64(tasks)
	if len(out) > 1 && cpuMilli > 0 {
		out[1] = float64(cpuMilli)
	}
	return out
}

// nearestWithTasks returns the candidate whose task count equals tasks and
// whose remaining dimensions are closest to `like`; when no candidate has
// that exact task count the nearest-by-task candidate wins.
func (c *Controller) nearestWithTasks(op, tasks int, like []float64) []float64 {
	cands := c.cfg.Candidates[op]
	best := cands[0]
	bestScore := math.Inf(1)
	for _, cand := range cands {
		score := 1000 * math.Abs(cand[0]-float64(tasks))
		for d := 1; d < len(cand) && d < len(like); d++ {
			score += math.Abs(cand[d] - like[d])
		}
		if score < bestScore {
			best, bestScore = cand, score
		}
	}
	return append([]float64(nil), best...)
}
