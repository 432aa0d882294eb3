// Package flink models the Apache Flink 1.10 session cluster the paper
// deploys on Kubernetes: a JobManager pod, one TaskManager deployment per
// operator (each running pod provides one task slot), savepoint-based
// rescaling with a stop-and-resume pause, and a per-slot report of every
// operator's rates and CPU utilization for the Job Monitor.
//
// The actual dataflow dynamics are delegated to a streamsim.Engine; this
// package owns the orchestration surface Dragster interacts with.
// StormOptions reuses the same model for Apache Storm's rebalance-based
// rescaling.
package flink

import (
	"errors"
	"fmt"
	"strings"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/monitor"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
)

// Pod templates of the paper's setup: every TaskManager pod provides one
// task slot of 1 CPU / 2 GB, and the JobManager pod gets the same.
var (
	taskManagerSpec = cluster.ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}
	jobManagerSpec  = cluster.ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}
)

// TaskManagerSpec returns the pod template of every TaskManager (one task
// slot).
func TaskManagerSpec() cluster.ResourceSpec { return taskManagerSpec }

// Options configures a session cluster.
type Options struct {
	// RescalePauseSeconds is the savepoint stop-and-resume cost charged on
	// every configuration change (the paper measures ≈30 s).
	RescalePauseSeconds int
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{RescalePauseSeconds: 30}
}

// StormOptions is the Apache Storm preset — the second substrate the
// paper names (§3.2: "We can also apply Dragster in Storm and Heron to
// adjust the number of executors for each Bolt via rebalancing"). A
// `storm rebalance` deactivates the topology only while executors are
// reassigned, so each reconfiguration stalls 10 s instead of the 30 s
// savepoint stop-and-resume; everything else (one worker deployment per
// bolt, 1 CPU / 2 GB slots) matches the Flink setup for comparability.
// Storm workers are homogeneous slots with no per-pod CPU dimension, so
// callers must not rescale a Storm job vertically (the experiment
// harness rejects storm with vertical scaling).
func StormOptions() Options {
	o := DefaultOptions()
	o.RescalePauseSeconds = 10
	return o
}

// SessionCluster hosts Flink jobs on a Kubernetes cluster. The paper's
// per-application deployments submit exactly one job; the fleet control
// plane (internal/fleet) submits several against one shared cluster and
// cancels them as tenants come and go.
type SessionCluster struct {
	k8s  *cluster.Cluster
	opts Options
	jobs map[string]*Job
}

// NewSession creates the session cluster and its JobManager deployment.
func NewSession(k8s *cluster.Cluster, opts Options) (*SessionCluster, error) {
	if k8s == nil {
		return nil, errors.New("flink: nil cluster")
	}
	if opts.RescalePauseSeconds < 0 {
		return nil, errors.New("flink: negative rescale pause")
	}
	if err := k8s.CreateDeployment("flink-jobmanager", jobManagerSpec, 1); err != nil {
		return nil, err
	}
	if k8s.RunningPods("flink-jobmanager") != 1 {
		return nil, errors.New("flink: cluster cannot schedule the JobManager pod")
	}
	return &SessionCluster{k8s: k8s, opts: opts, jobs: make(map[string]*Job)}, nil
}

// ChaosHooks is the Flink-side fault-injection surface. A chaos engine
// installs one via Job.SetChaosHooks; with none installed every hook site
// is a no-op, so fault-free runs execute the exact pre-hook code path.
type ChaosHooks interface {
	// InterceptRescale is consulted before a non-trivial rescale is
	// applied. A non-nil error aborts the rescale — modelling a savepoint
	// failure or a rescale timeout — and the job keeps its previous
	// configuration; the error is propagated to the caller.
	InterceptRescale(job string, slot int) error
	// ExtraRestoreSeconds returns additional pause seconds to charge on a
	// successful rescale (a slow savepoint restore); 0 for the normal
	// stop-and-resume cost.
	ExtraRestoreSeconds(job string, slot int) int
}

// Job is a running Flink application.
type Job struct {
	name    string
	session *SessionCluster
	graph   *dag.Graph
	engine  *streamsim.Engine

	desired     []int    // desired parallelism per operator index
	deployments []string // TaskManager deployment per operator index
	opNames     []string // operator name per operator index

	// Per-slot scratch: the Running pods and per-pod CPU per operator,
	// read into effTasks/effCPU at each slot's start and end, and the
	// slot accumulator, reset every slot.
	effTasks []int
	effCPU   []int
	acc      *monitor.SlotAccumulator

	slot       int
	lastReport *monitor.Snapshot
	hooks      ChaosHooks
	tracer     *telemetry.Tracer
}

// SetChaosHooks installs (or, with nil, removes) the fault-injection
// hooks consulted by Rescale/RescaleResources.
func (j *Job) SetChaosHooks(h ChaosHooks) { j.hooks = h }

// SetTracer installs (or, with nil, removes) the observability tracer.
// The job emits one "rescale" span per applied savepoint rescale (with
// pause cost and abort cause) and one "run_slot" span per executed slot.
func (j *Job) SetTracer(tr *telemetry.Tracer) { j.tracer = tr }

// SubmitJob deploys a job: one TaskManager deployment per operator with
// the initial parallelism, wired to the supplied simulation engine. Job
// names must be unique within the session; the single-job case matches
// the paper's per-application session clusters, and the fleet manager
// submits several.
func (s *SessionCluster) SubmitJob(name string, g *dag.Graph, engine *streamsim.Engine, initial []int) (*Job, error) {
	if _, ok := s.jobs[name]; ok {
		return nil, fmt.Errorf("flink: session already hosts job %q", name)
	}
	if g == nil || engine == nil {
		return nil, errors.New("flink: nil graph or engine")
	}
	if len(initial) != g.NumOperators() {
		return nil, fmt.Errorf("flink: got %d initial parallelisms, want %d", len(initial), g.NumOperators())
	}
	j := &Job{
		name:        name,
		session:     s,
		graph:       g,
		engine:      engine,
		desired:     append([]int(nil), initial...),
		deployments: make([]string, g.NumOperators()),
		opNames:     make([]string, g.NumOperators()),
	}
	eff := make([]int, 2*g.NumOperators())
	j.effTasks, j.effCPU = eff[:g.NumOperators()], eff[g.NumOperators():]
	for i := 0; i < g.NumOperators(); i++ {
		if initial[i] < 1 {
			return nil, fmt.Errorf("flink: operator %d needs at least one task", i)
		}
		j.opNames[i] = g.OperatorName(i)
		dep := deploymentName(name, j.opNames[i])
		if err := s.k8s.CreateDeployment(dep, taskManagerSpec, initial[i]); err != nil {
			return nil, err
		}
		j.deployments[i] = dep
	}
	if err := j.syncEngineTasks(); err != nil {
		return nil, err
	}
	s.jobs[name] = j
	return j, nil
}

// CancelJob stops a job and deletes its TaskManager deployments, freeing
// the cluster capacity for other tenants. The Job handle becomes invalid
// for further RunSlot/Rescale calls.
func (s *SessionCluster) CancelJob(name string) error {
	j, ok := s.jobs[name]
	if !ok {
		return fmt.Errorf("flink: unknown job %q", name)
	}
	for _, dep := range j.deployments {
		if err := s.k8s.DeleteDeployment(dep); err != nil {
			return err
		}
	}
	delete(s.jobs, name)
	j.tracer.Event("flink", "cancel_job", telemetry.Str("job", name))
	j.tracer.Metrics().Inc("flink_jobs_cancelled")
	return nil
}

func deploymentName(job, op string) string {
	san := strings.ToLower(strings.ReplaceAll(op, " ", "-"))
	return fmt.Sprintf("tm-%s-%s", strings.ToLower(job), san)
}

// Parallelism returns the desired parallelism vector.
func (j *Job) Parallelism() []int { return append([]int(nil), j.desired...) }

// EffectiveParallelism returns the Running TaskManager pods per operator —
// what the dataflow actually gets, which can fall short of the desired
// vector when the cluster is out of capacity.
func (j *Job) EffectiveParallelism() []int {
	return j.runningInto(make([]int, len(j.deployments)))
}

// RunningTasks returns the Running TaskManager pods summed over the
// job's operators: Σ EffectiveParallelism without building the vector.
func (j *Job) RunningTasks() int {
	total := 0
	for _, dep := range j.deployments {
		total += j.session.k8s.RunningPods(dep)
	}
	return total
}

func (j *Job) runningInto(out []int) []int {
	for i, dep := range j.deployments {
		out[i] = j.session.k8s.RunningPods(dep)
	}
	return out
}

// Rescale applies a new desired parallelism vector. When anything changes
// it scales the TaskManager deployments and charges the savepoint
// stop-and-resume pause. A no-op rescale costs nothing.
func (j *Job) Rescale(parallelism []int) error {
	return j.RescaleResources(parallelism, nil)
}

// RescaleResources applies a new parallelism vector and, when cpuMilli is
// non-nil, new per-pod CPU allocations (the vertical dimension of the
// paper's configuration vector, applied through cluster Resize). CPU
// changes trigger a rolling pod replacement plus the savepoint pause.
func (j *Job) RescaleResources(parallelism []int, cpuMilli []int) error {
	if len(parallelism) != len(j.desired) {
		return fmt.Errorf("flink: got %d parallelisms, want %d", len(parallelism), len(j.desired))
	}
	if cpuMilli != nil && len(cpuMilli) != len(j.desired) {
		return fmt.Errorf("flink: got %d CPU allocations, want %d", len(cpuMilli), len(j.desired))
	}
	changed := false
	for i, p := range parallelism {
		if p < 1 {
			return fmt.Errorf("flink: operator %d needs at least one task", i)
		}
		if p != j.desired[i] {
			changed = true
		}
	}
	if cpuMilli != nil {
		for i, cpu := range cpuMilli {
			if cpu < 100 {
				return fmt.Errorf("flink: operator %d CPU %dm below the 100m floor", i, cpu)
			}
			if cur, ok := j.session.k8s.DeploymentSpec(j.deployments[i]); ok && cur.CPUMilli != cpu {
				changed = true
			}
		}
	}
	if !changed {
		return nil
	}
	sp := j.tracer.Begin("flink", "rescale",
		telemetry.Str("job", j.name),
		telemetry.Int("slot", j.slot),
		telemetry.Ints("tasks", parallelism))
	defer sp.End()
	if cpuMilli != nil {
		sp.Annotate(telemetry.Ints("cpu_milli", cpuMilli))
	}
	if j.hooks != nil {
		if err := j.hooks.InterceptRescale(j.name, j.slot); err != nil {
			// Savepoint failure / rescale timeout: the job keeps running on
			// its previous configuration and the caller decides whether (and
			// when) to retry.
			sp.Annotate(telemetry.Str("aborted", err.Error()))
			j.tracer.Metrics().Inc("flink_rescales_aborted")
			return fmt.Errorf("flink: rescale of %s aborted: %w", j.name, err)
		}
	}
	for i := range j.desired {
		if cpuMilli != nil {
			if cur, ok := j.session.k8s.DeploymentSpec(j.deployments[i]); ok && cur.CPUMilli != cpuMilli[i] {
				spec := cur
				spec.CPUMilli = cpuMilli[i]
				if err := j.session.k8s.Resize(j.deployments[i], spec); err != nil {
					return err
				}
			}
		}
		if parallelism[i] != j.desired[i] {
			if err := j.session.k8s.Scale(j.deployments[i], parallelism[i]); err != nil {
				return err
			}
			j.desired[i] = parallelism[i]
		}
	}
	if err := j.syncEngineTasks(); err != nil {
		return err
	}
	pause := j.session.opts.RescalePauseSeconds
	if j.hooks != nil {
		if extra := j.hooks.ExtraRestoreSeconds(j.name, j.slot); extra > 0 {
			pause += extra // slow savepoint restore
		}
	}
	j.engine.Pause(pause)
	sp.Annotate(telemetry.Int("pause_sec", pause))
	reg := j.tracer.Metrics()
	reg.Inc("flink_rescales_applied")
	if err := reg.DefineHistogram("flink_rescale_pause_sec", []float64{30, 60, 120, 300}); err == nil {
		reg.Observe("flink_rescale_pause_sec", float64(pause))
	}
	return nil
}

// EffectiveCPUMilli returns each operator's current per-pod CPU template.
func (j *Job) EffectiveCPUMilli() []int {
	return j.cpuInto(make([]int, len(j.deployments)))
}

func (j *Job) cpuInto(out []int) []int {
	for i, dep := range j.deployments {
		out[i] = 0
		if spec, ok := j.session.k8s.DeploymentSpec(dep); ok {
			out[i] = spec.CPUMilli
		}
	}
	return out
}

// readEffective reads the Running pods and per-pod CPU per operator into
// the job's scratch, effTasks and effCPU.
func (j *Job) readEffective() {
	j.runningInto(j.effTasks)
	j.cpuInto(j.effCPU)
}

// syncEngineTasks hands the engine the effective allocation. The
// engine's SetTasks copies it and rejects a vector whose length is not
// its operator count, which is what lets the slot loop's accumulator
// skip its per-tick shape checks.
func (j *Job) syncEngineTasks() error {
	j.readEffective()
	if err := j.engine.SetTasks(j.effTasks); err != nil {
		return err
	}
	return j.engine.SetCPU(j.effCPU)
}

// RunSlot advances the job by `seconds` ticks at the offered rates
// returned by rateAt (called with the second offset within the slot) and
// returns the slot report.
func (j *Job) RunSlot(seconds int, rateAt func(sec int) []float64) (*monitor.Snapshot, error) {
	return j.runSlot(seconds, rateAt, true)
}

// RunSlotDetached is RunSlot without advancing the shared cluster clock.
// When several jobs co-simulate one decision slot against one cluster
// (internal/fleet), exactly one participant may tick the cluster — every
// tick accrues cost for *all* running pods — so the fleet manager
// designates one clock owner per round and runs the rest detached.
func (j *Job) RunSlotDetached(seconds int, rateAt func(sec int) []float64) (*monitor.Snapshot, error) {
	return j.runSlot(seconds, rateAt, false)
}

func (j *Job) runSlot(seconds int, rateAt func(sec int) []float64, tickCluster bool) (*monitor.Snapshot, error) {
	// Re-sync the dataflow with the pods that are actually Running: node
	// failures or freed capacity between slots change the effective
	// parallelism without a Rescale call.
	if err := j.syncEngineTasks(); err != nil {
		return nil, err
	}
	sp := j.tracer.Begin("flink", "run_slot",
		telemetry.Str("job", j.name),
		telemetry.Int("slot", j.slot),
		telemetry.Int("seconds", seconds))
	defer sp.End()
	j.engine.BeginSlot()
	var err error
	if j.acc == nil {
		j.acc, err = monitor.NewSlotAccumulator(j.slot, j.graph.NumOperators(), j.graph.NumSources(), seconds)
	} else {
		err = j.acc.Reset(j.slot, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("flink: %w", err)
	}
	acc := j.acc
	droppedBefore := j.engine.DroppedTotal()
	for sec := 0; sec < seconds; sec++ {
		rates := rateAt(sec)
		st, err := j.engine.Tick(rates)
		if err != nil {
			return nil, err
		}
		acc.Tick(rates, st)
		if tickCluster {
			j.session.k8s.Tick(1)
		}
	}
	// The slot's end is read afresh: an injector may have killed pods
	// during the slot, and the report carries what is Running now.
	j.readEffective()
	rep, err := acc.Finish(j.opNames, j.effTasks, j.effCPU,
		j.engine.DroppedTotal()-droppedBefore, j.session.k8s.Cost())
	if err != nil {
		return nil, err
	}
	sp.Annotate(
		telemetry.Float("throughput", rep.Throughput),
		telemetry.Float("dropped", rep.DroppedTuples),
		telemetry.Int("paused_sec", rep.PausedSeconds))
	j.tracer.Metrics().Inc("flink_slots_run")
	j.slot++
	j.lastReport = rep
	return rep, nil
}

// LastReport returns the most recent slot report, or nil before the first
// slot completes.
func (j *Job) LastReport() *monitor.Snapshot { return j.lastReport }
