// Package tenant is one streaming job under a scaling policy: the
// per-slot sequence of the paper's Algorithm 2 over the job's own
// dataflow engine, substrate job, monitor, policy and rescale retrier.
// The sequence is split into phases — RunSlot, Collect, Decide, Apply —
// so that the single-job experiment runner can walk them for its one
// tenant while the fleet manager runs each across all its tenants on a
// shared cluster. RunSlot also accounts the slot it ran, so both drivers
// charge every slot for the allocation that ran it. A Tenant is not safe for concurrent use, but distinct
// tenants share only the concurrency-safe metrics registry, so their
// Decide phases may run in parallel.
package tenant

import (
	"errors"
	"math"
	"slices"

	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/stats"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

// maxBufferSeconds caps each engine edge's backlog at this many seconds
// of the tenant's peak offered rate; tuples beyond it are dropped.
const maxBufferSeconds = 120

// Config assembles a Tenant.
type Config struct {
	// Name is the job name on the substrate.
	Name string
	// Workload supplies the DAG and the ground-truth capacity models.
	Workload *workload.Spec
	// Rates is the offered load, indexed by the tenant's own slot count
	// (slot 0 is its first slot).
	Rates workload.RateFunc
	// Horizon is the number of slots whose peak offered rate sizes the
	// per-edge buffer cap.
	Horizon int
	// Seed seeds the dataflow engine's noise stream.
	Seed int64
	// InitialTasks is the configuration at submission (nil = one task per
	// operator).
	InitialTasks []int
	// Session is the substrate the job is submitted to (a Flink session,
	// or a Storm cluster built from flink.StormOptions).
	Session *flink.SessionCluster
	// Policy decides each slot's configuration. A Dragster controller
	// whose candidates carry a CPU axis picks per-pod CPU as well.
	Policy core.Autoscaler
	// Metrics receives the rescale retrier's counters.
	Metrics *telemetry.Registry
	// Tracer, when set, is installed on the job, monitor and controller.
	Tracer *telemetry.Tracer
}

// Usage is a tenant's allocation during a slot with its ground-truth
// steady throughput and realized soft-constraint violations.
type Usage struct {
	Tasks    []int // effective parallelism
	CPUMilli []int // per-pod CPU
	Steady   float64
	// Violations is l_i = demand − capacity per operator. The slice is
	// reused by the next RunSlot; copy it to retain it.
	Violations []float64
}

// Tenant is one job with its policy; see the package comment.
type Tenant struct {
	spec    *workload.Spec
	rateFn  workload.RateFunc
	job     *flink.Job
	mon     *monitor.Monitor
	policy  core.Autoscaler
	ctrl    *core.Controller // nil for baseline policies
	retrier retrier

	slot   int
	rateAt func(sec int) []float64 // reads slot; built once
	rates  []float64               // offered rates at the current slot's start

	snap       *monitor.Snapshot // nil when the round is skipped
	desired    []int
	desiredCPU []int
	targetY    []float64

	// Accounting scratch, grown once and reused every slot.
	caps, viol []float64
	frep       dag.FlowReport
}

// New builds the tenant's engine, submits its job, and wires the monitor,
// tracer and rescale retrier around cfg.Policy.
func New(cfg Config) (*Tenant, error) {
	if cfg.Workload == nil || cfg.Rates == nil || cfg.Policy == nil || cfg.Session == nil {
		return nil, errors.New("tenant: needs a Workload, a RateFunc, a Policy and a Session")
	}
	spec := cfg.Workload
	engine, err := streamsim.New(streamsim.Config{
		Graph:            spec.Graph,
		Models:           spec.Models,
		NoiseSigma:       streamsim.CloudNoiseSigma,
		UtilNoiseSigma:   streamsim.CloudUtilNoiseSigma,
		MaxBufferPerEdge: maxBufferSeconds * math.Max(slices.Max(workload.PeakRates(cfg.Rates, spec.Graph.NumSources(), cfg.Horizon)), 1),
		RNG:              stats.NewRNG(cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	initial := cfg.InitialTasks
	if initial == nil {
		initial = make([]int, spec.Graph.NumOperators())
		for i := range initial {
			initial[i] = 1
		}
	}
	t := &Tenant{spec: spec, rateFn: cfg.Rates, policy: cfg.Policy, retrier: retrier{counters: cfg.Metrics}}
	if t.job, err = cfg.Session.SubmitJob(cfg.Name, spec.Graph, engine, initial); err != nil {
		return nil, err
	}
	t.job.SetTracer(cfg.Tracer)
	if t.mon, err = monitor.New(t.job); err != nil {
		return nil, err
	}
	t.mon.SetTracer(cfg.Tracer)
	if t.ctrl, _ = cfg.Policy.(*core.Controller); t.ctrl != nil {
		t.ctrl.SetTracer(cfg.Tracer)
	}
	t.rateAt = func(sec int) []float64 { return t.rateFn(t.slot, sec) }
	return t, nil
}

// ControllerConfig returns the Dragster controller settings every tenant
// of spec shares: its graph and capacity bound, the 1..MaxTasks task grid
// per operator, and GP noise sized from the engine's capacity noise.
// Callers add the method, budget and the rest.
func ControllerConfig(spec *workload.Spec) core.Config {
	// Capacity observations carry roughly CloudNoiseSigma relative error;
	// anchor the variance to the capacity scale.
	noiseSD := streamsim.CloudNoiseSigma * (spec.YMax / 3)
	grid := make([][]float64, spec.MaxTasks)
	for n := 1; n <= spec.MaxTasks; n++ {
		grid[n-1] = []float64{float64(n)}
	}
	cands := make([][][]float64, spec.Graph.NumOperators())
	for i := range cands {
		cands[i] = grid
	}
	return core.Config{Graph: spec.Graph, YMax: spec.YMax, NoiseVar: noiseSD * noiseSD, Candidates: cands}
}

// Flink returns the substrate job.
func (t *Tenant) Flink() *flink.Job { return t.job }

// Monitor returns the tenant's job monitor.
func (t *Tenant) Monitor() *monitor.Monitor { return t.mon }

// Controller returns the policy as a Dragster controller, or nil for
// baseline policies.
func (t *Tenant) Controller() *core.Controller { return t.ctrl }

// Slot returns the number of slots run so far, which is also the index
// of the next one.
func (t *Tenant) Slot() int { return t.slot }

// Rates returns the offered rates at the start of the last slot run. The
// slice is reused by the next RunSlot; copy it to retain it.
func (t *Tenant) Rates() []float64 { return t.rates }

// RunSlot simulates the tenant's next slot for the given seconds and
// accounts it: the slot report comes back with the slot's Usage, the
// ground-truth steady throughput of the allocation that ran it at the
// slot's offered rates. With tickClock false the slot runs without
// advancing the shared cluster clock (see flink.Job.RunSlotDetached),
// for tenants that share a cluster whose clock another tenant owns.
func (t *Tenant) RunSlot(seconds int, tickClock bool) (*monitor.Snapshot, Usage, error) {
	t.rates = append(t.rates[:0], t.rateFn(t.slot, 0)...)
	t.snap = nil
	var rep *monitor.Snapshot
	var err error
	if tickClock {
		rep, err = t.job.RunSlot(seconds, t.rateAt)
	} else {
		rep, err = t.job.RunSlotDetached(seconds, t.rateAt)
	}
	if err != nil {
		return nil, Usage{}, err
	}
	t.slot++
	use, err := t.account(rep)
	if err != nil {
		return nil, Usage{}, err
	}
	return rep, use, nil
}

// account evaluates the ground-truth steady throughput of the effective
// allocation the slot report ends with (CPU-aware where the capacity
// models are) at the slot's offered rates, with the per-operator
// violations the same evaluation leaves behind.
//
//lint:hotpath
func (t *Tenant) account(rep *monitor.Snapshot) (Usage, error) {
	n := len(rep.Operators)
	//lint:allow hotpath the Usage rows retain the tasks and CPU vectors, so each slot needs its own
	alloc := make([]int, 2*n)
	tasks, cpu := alloc[:n:n], alloc[n:]
	if cap(t.caps) < n {
		t.caps = make([]float64, n)
		t.viol = make([]float64, n)
	}
	caps, viol := t.caps[:n], t.viol[:n]
	models := t.spec.Models
	for i, om := range rep.Operators {
		tasks[i], cpu[i] = om.Tasks, om.CPUMilli
		if ra, ok := models[i].(streamsim.ResourceAware); ok && om.CPUMilli > 0 {
			caps[i] = ra.CapacityWithCPU(om.Tasks, om.CPUMilli)
		} else {
			caps[i] = models[i].Capacity(om.Tasks)
		}
	}
	if err := t.spec.Graph.EvaluateInto(&t.frep, t.rates, caps); err != nil {
		return Usage{}, err
	}
	for i, c := range caps {
		viol[i] = t.frep.Demand[i] - c
	}
	return Usage{Tasks: tasks, CPUMilli: cpu, Steady: t.frep.Throughput, Violations: viol}, nil
}

// Collect fetches the last slot's monitor snapshot. It reports false, with
// no error, when the metrics pipeline had no fresh sample (a blackout or a
// stale repeat): the round is then skipped, and Decide and Apply keep the
// current configuration rather than feed the learner a fabricated sample.
func (t *Tenant) Collect() (bool, error) {
	snap, err := t.mon.Collect()
	if errors.Is(err, monitor.ErrNoSample) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	t.snap = snap
	return true, nil
}

// Snapshot returns the last collected snapshot, or nil on a skipped round.
func (t *Tenant) Snapshot() *monitor.Snapshot { return t.snap }

// Decide runs the policy on the collected snapshot: DecideDetailed for a
// Dragster controller, Decide for baseline policies. It does nothing on a
// skipped round.
func (t *Tenant) Decide() error {
	if t.snap == nil {
		return nil
	}
	var diag *core.LastTargets
	var err error
	t.desiredCPU, t.targetY = nil, nil
	if t.ctrl != nil {
		t.desired, t.desiredCPU, diag, err = t.ctrl.DecideDetailed(t.snap)
	} else {
		t.desired, err = t.policy.Decide(t.snap)
	}
	if err != nil {
		return err
	}
	if diag != nil {
		t.targetY = diag.Y
	}
	return nil
}

// Desired returns the task counts of the last decision.
func (t *Tenant) Desired() []int { return t.desired }

// TargetY returns the level-1 targets of the last decision (nil for
// baseline policies). The slice is the controller's own: read-only and
// valid until the next Decide; copy it to retain it.
func (t *Tenant) TargetY() []float64 { return t.targetY }

// Apply drives the substrate to the last decision through the rescale
// retrier: injected faults are absorbed and retried with backoff measured
// in the tenant's slots, other rescale errors are returned. It does
// nothing on a skipped round.
func (t *Tenant) Apply() error {
	if t.snap == nil {
		return nil
	}
	return t.retrier.apply(t.job, t.desired, t.desiredCPU, t.slot-1)
}
