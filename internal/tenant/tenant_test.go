package tenant

import (
	"errors"
	"reflect"
	"testing"

	"dragster/internal/baseline"
	"dragster/internal/chaos"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/store"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

const slotSeconds = 60

// rig is one tenant on a private cluster, with an optional chaos engine.
type rig struct {
	t     *Tenant
	k8s   *cluster.Cluster
	reg   *telemetry.Registry
	chaos *chaos.Engine
	use   Usage // the last round's accounting
}

func newRig(t *testing.T, spec *workload.Spec, policy core.Autoscaler, faults *chaos.Spec) *rig {
	t.Helper()
	k8s := cluster.New()
	if err := k8s.AddNodes("node", 8, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	session, err := flink.NewSession(k8s, flink.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tn, err := New(Config{
		Name:     spec.Name,
		Workload: spec,
		Rates:    rates,
		Horizon:  8,
		Seed:     3,
		Session:  session,
		Policy:   policy,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: tn, k8s: k8s, reg: reg}
	if faults != nil {
		if r.chaos, err = chaos.NewEngine(faults, 5, reg); err != nil {
			t.Fatal(err)
		}
		if err := r.chaos.Install(k8s, tn.Flink(), tn.Monitor()); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// round runs one full slot: the phases in the experiment runner's order.
// It keeps the slot's accounting in r.use and reports whether the round
// collected a fresh sample.
func (r *rig) round(t *testing.T) bool {
	t.Helper()
	if r.chaos != nil {
		r.chaos.BeginSlot(r.t.Slot())
	}
	var err error
	if _, r.use, err = r.t.RunSlot(slotSeconds, true); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.t.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.t.Decide(); err != nil {
		t.Fatal(err)
	}
	if err := r.t.Apply(); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func mustSpec(t *testing.T, f func() (*workload.Spec, error)) *workload.Spec {
	t.Helper()
	spec, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// scripted is a baseline policy returning a fixed sequence of
// configurations and counting its calls.
type scripted struct {
	plan  [][]int
	calls int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Decide(*monitor.Snapshot) ([]int, error) {
	out := s.plan[s.calls%len(s.plan)]
	s.calls++
	return append([]int(nil), out...), nil
}

func TestNewValidates(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	policy := &scripted{plan: [][]int{{1, 1}}}
	if _, err := New(Config{Workload: spec, Rates: rates}); err == nil {
		t.Error("tenant without a policy accepted")
	}
	if _, err := New(Config{Workload: spec, Rates: rates, Policy: policy}); err == nil {
		t.Error("tenant without a substrate accepted")
	}
}

// TestBaselineDecidePath drives a non-Dragster policy: Decide goes
// through Autoscaler.Decide, no level-1 targets exist, and Apply moves
// the job to the decision.
func TestBaselineDecidePath(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	policy := &scripted{plan: [][]int{{3, 2}}}
	r := newRig(t, spec, policy, nil)
	if !r.round(t) {
		t.Fatal("first round skipped")
	}
	if policy.calls != 1 {
		t.Fatalf("policy called %d times, want 1", policy.calls)
	}
	if r.t.TargetY() != nil {
		t.Errorf("baseline decision has targets %v", r.t.TargetY())
	}
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, []int{3, 2}) {
		t.Errorf("parallelism after apply = %v, want [3 2]", got)
	}
	if r.t.Controller() != nil {
		t.Error("baseline policy reported as a controller")
	}
}

// TestDecideLeavesSnapshotUnchanged: the snapshot a policy reads is the
// substrate's own slot report, so neither a Dragster controller nor a
// Dhalion Decide may write to it.
func TestDecideLeavesSnapshotUnchanged(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	ctrl, err := core.New(ControllerConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	dhalion, err := baseline.NewDhalion(spec.MaxTasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []core.Autoscaler{ctrl, dhalion} {
		r := newRig(t, spec, policy, nil)
		for slot := 0; slot < 4; slot++ {
			if _, _, err := r.t.RunSlot(slotSeconds, true); err != nil {
				t.Fatal(err)
			}
			if fresh, err := r.t.Collect(); err != nil || !fresh {
				t.Fatalf("%s slot %d: collect fresh=%v err=%v", policy.Name(), slot, fresh, err)
			}
			snap := r.t.Snapshot()
			if snap != r.t.Flink().LastReport() {
				t.Fatalf("%s slot %d: the collected snapshot is not the job's report", policy.Name(), slot)
			}
			before := *snap
			before.SourceRates = append([]float64(nil), snap.SourceRates...)
			before.Operators = append([]monitor.OperatorMetrics(nil), snap.Operators...)
			if err := r.t.Decide(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*snap, before) {
				t.Fatalf("%s slot %d: Decide changed the snapshot\nbefore %+v\nafter  %+v", policy.Name(), slot, before, *snap)
			}
			if err := r.t.Apply(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSkippedRoundKeepsConfiguration blacks the metrics out for one slot:
// Collect reports a skip, the policy is not consulted, and the job keeps
// its configuration.
func TestSkippedRoundKeepsConfiguration(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	policy := &scripted{plan: [][]int{{2, 2}, {4, 4}}}
	r := newRig(t, spec, policy, chaos.NewSpec("dark").BlackoutMetrics(1, 1))
	if !r.round(t) {
		t.Fatal("round 0 skipped")
	}
	before := r.t.Flink().Parallelism()
	if r.round(t) {
		t.Fatal("round 1 collected a sample inside the blackout")
	}
	if r.t.Snapshot() != nil {
		t.Error("skipped round kept a snapshot")
	}
	if policy.calls != 1 {
		t.Errorf("policy called %d times across a skipped round, want 1", policy.calls)
	}
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, before) {
		t.Errorf("configuration moved on a skipped round: %v → %v", before, got)
	}
	if !r.round(t) || policy.calls != 2 {
		t.Errorf("round after the blackout: policy calls %d, want 2", policy.calls)
	}
}

// TestVerticalDecidePath runs a Dragster controller over the 2-D
// (tasks, CPU) space: the decision carries per-pod CPU and Apply sets it.
func TestVerticalDecidePath(t *testing.T) {
	spec := mustSpec(t, workload.WordCount2D)
	grid, err := store.Grid2D(1, spec.MaxTasks, 500, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ControllerConfig(spec)
	for i := range cfg.Candidates {
		cfg.Candidates[i] = grid
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, spec, ctrl, nil)
	if !r.round(t) {
		t.Fatal("first round skipped")
	}
	if r.t.desiredCPU == nil || len(r.t.desiredCPU) != spec.Graph.NumOperators() {
		t.Fatalf("vertical decision without CPU: %v", r.t.desiredCPU)
	}
	if len(r.t.TargetY()) != spec.Graph.NumOperators() {
		t.Errorf("controller decision targets = %v", r.t.TargetY())
	}
	if got := r.t.Flink().EffectiveCPUMilli(); !reflect.DeepEqual(got, r.t.desiredCPU) {
		t.Errorf("per-pod CPU after apply = %v, want %v", got, r.t.desiredCPU)
	}
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, r.t.Desired()) {
		t.Errorf("parallelism after apply = %v, want %v", got, r.t.Desired())
	}
}

// TestOneDimensionalDecidePath is TestVerticalDecidePath's 1-D twin: a
// Dragster controller over the task grid hands the retrier nil CPU, so
// Apply rescales tasks and leaves every pod at its 1-CPU template.
func TestOneDimensionalDecidePath(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	ctrl, err := core.New(ControllerConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, spec, ctrl, nil)
	if !r.round(t) {
		t.Fatal("first round skipped")
	}
	if r.t.desiredCPU != nil {
		t.Fatalf("1-D decision carries CPU %v, want nil", r.t.desiredCPU)
	}
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, r.t.Desired()) {
		t.Errorf("parallelism after apply = %v, want %v", got, r.t.Desired())
	}
	for i, cpu := range r.t.Flink().EffectiveCPUMilli() {
		if want := flink.TaskManagerSpec().CPUMilli; cpu != want {
			t.Errorf("op %d per-pod CPU = %dm, want the %dm template", i, cpu, want)
		}
	}
}

// TestRetrierAbsorbsInjectedFaults fails the first savepoint: Apply
// absorbs the injected error and counts it, while a non-injected rescale
// error still surfaces.
func TestRetrierAbsorbsInjectedFaults(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	policy := &scripted{plan: [][]int{{3, 3}}}
	r := newRig(t, spec, policy, chaos.NewSpec("sp").FailSavepoints(0, 1))
	r.round(t)
	if got := r.reg.CounterValue("rescale_failures"); got != 1 {
		t.Errorf("rescale_failures = %d, want 1", got)
	}
	if got := r.reg.CounterValue("chaos_savepoint_failures"); got != 1 {
		t.Errorf("chaos_savepoint_failures = %d, want 1", got)
	}
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("failed savepoint still rescaled to %v", got)
	}
	// The retry after the backoff goes through.
	r.round(t)
	if got := r.t.Flink().Parallelism(); !reflect.DeepEqual(got, []int{3, 3}) {
		t.Errorf("retried rescale left %v, want [3 3]", got)
	}

	bad := newRig(t, spec, &scripted{plan: [][]int{{1, 1, 1}}}, nil)
	if _, _, err := bad.t.RunSlot(slotSeconds, true); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.t.Collect(); err != nil {
		t.Fatal(err)
	}
	if err := bad.t.Decide(); err != nil {
		t.Fatal(err)
	}
	if err := bad.t.Apply(); err == nil || errors.Is(err, chaos.ErrInjected) {
		t.Errorf("wrong-length rescale: err = %v, want a non-injected error", err)
	}
}

// TestAccountMatchesThroughput pins the accounting RunSlot returns
// against a fresh Graph.Throughput evaluation of the allocation that ran
// the slot, bit for bit, its violations against Graph.Evaluate, and pins
// that the accounting allocates one block per slot: the tasks and CPU
// vectors the Usage rows retain.
func TestAccountMatchesThroughput(t *testing.T) {
	spec := mustSpec(t, workload.WordCount)
	r := newRig(t, spec, &scripted{plan: [][]int{{4, 3}}}, nil)
	for i := 0; i < 3; i++ {
		ran := r.t.Flink().Parallelism()
		r.round(t)
		use := r.use
		if !reflect.DeepEqual(use.Tasks, ran) {
			t.Errorf("round %d: accounted tasks %v, the slot ran %v", i, use.Tasks, ran)
		}
		caps := make([]float64, len(use.Tasks))
		for k, n := range use.Tasks {
			caps[k] = spec.Models[k].Capacity(n)
		}
		want, err := spec.Graph.Throughput(spec.HighRates, caps)
		if err != nil {
			t.Fatal(err)
		}
		if use.Steady != want {
			t.Errorf("round %d: steady %v, Graph.Throughput %v", i, use.Steady, want)
		}
		rep, err := spec.Graph.Evaluate(spec.HighRates, caps)
		if err != nil {
			t.Fatal(err)
		}
		if len(use.Violations) != len(caps) {
			t.Fatalf("round %d: %d violations for %d operators", i, len(use.Violations), len(caps))
		}
		for k, v := range use.Violations {
			if v != rep.Demand[k]-caps[k] {
				t.Errorf("round %d: violation[%d] = %v, want %v", i, k, v, rep.Demand[k]-caps[k])
			}
		}
	}
	if _, ok := spec.Models[0].(streamsim.ResourceAware); ok {
		t.Fatal("WordCount models are CPU-aware; the reference above assumes not")
	}
	rep := r.t.Flink().LastReport()
	use, err := r.t.account(rep)
	if err != nil {
		t.Fatal(err)
	}
	for k, om := range rep.Operators {
		if use.Tasks[k] != om.Tasks || use.CPUMilli[k] != om.CPUMilli {
			t.Errorf("op %d: accounted %d tasks at %dm, the report ends with %d at %dm", k, use.Tasks[k], use.CPUMilli[k], om.Tasks, om.CPUMilli)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.t.account(rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("accounting allocates %v times per call, want the one block the rows keep", allocs)
	}
}
