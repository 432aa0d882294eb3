// Package storm models an Apache Storm cluster on Kubernetes — the second
// substrate the paper names (§3.2: "We can also apply Dragster in Storm
// and Heron to adjust the number of executors for each Bolt via
// rebalancing"). Compared to the Flink substrate:
//
//   - components are spouts (sources) and bolts (operators);
//   - parallelism changes go through the `rebalance` command, which stalls
//     the topology for a few seconds rather than Flink's ~30 s
//     savepoint stop-and-resume;
//   - there is no vertical (per-pod CPU) dimension — Storm workers are
//     homogeneous slots.
//
// The dataflow dynamics are delegated to a streamsim.Engine exactly like
// the Flink substrate, and slot reports use the shared telemetry types,
// so the Job Monitor and the Dragster controller run unmodified on top.
package storm

import (
	"errors"
	"fmt"
	"strings"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/streamsim"
	"dragster/internal/telemetry"
)

// Options configures a Storm cluster.
type Options struct {
	// WorkerSpec is the pod template of each supervisor worker slot
	// (default 1 CPU / 2 GB, matching the Flink setup for comparability).
	WorkerSpec cluster.ResourceSpec
	// NimbusSpec is the master pod template.
	NimbusSpec cluster.ResourceSpec
	// RebalancePauseSeconds stalls processing on every rebalance (Storm
	// deactivates the topology while reassigning executors; default 10 s,
	// the "faster, more dynamic reconfiguration mechanism" regime the
	// paper contrasts with Flink checkpoints).
	RebalancePauseSeconds int
}

// DefaultOptions returns the standard setup.
func DefaultOptions() Options {
	return Options{
		WorkerSpec:            cluster.ResourceSpec{CPUMilli: 1000, MemoryMB: 2048},
		NimbusSpec:            cluster.ResourceSpec{CPUMilli: 1000, MemoryMB: 2048},
		RebalancePauseSeconds: 10,
	}
}

// Cluster hosts one Storm topology on a Kubernetes cluster.
type Cluster struct {
	k8s  *cluster.Cluster
	opts Options
	topo *Topology
}

// NewCluster creates the Storm control plane (the Nimbus deployment).
func NewCluster(k8s *cluster.Cluster, opts Options) (*Cluster, error) {
	if k8s == nil {
		return nil, errors.New("storm: nil cluster")
	}
	if err := opts.WorkerSpec.Validate(); err != nil {
		return nil, fmt.Errorf("storm: worker spec: %w", err)
	}
	if err := opts.NimbusSpec.Validate(); err != nil {
		return nil, fmt.Errorf("storm: nimbus spec: %w", err)
	}
	if opts.RebalancePauseSeconds < 0 {
		return nil, errors.New("storm: negative rebalance pause")
	}
	if err := k8s.CreateDeployment("storm-nimbus", opts.NimbusSpec, 1); err != nil {
		return nil, err
	}
	if k8s.RunningPods("storm-nimbus") != 1 {
		return nil, errors.New("storm: cluster cannot schedule the Nimbus pod")
	}
	return &Cluster{k8s: k8s, opts: opts}, nil
}

// Cluster returns the underlying Kubernetes cluster.
func (c *Cluster) Cluster() *cluster.Cluster { return c.k8s }

// Topology is a running Storm topology.
type Topology struct {
	name    string
	storm   *Cluster
	graph   *dag.Graph
	engine  *streamsim.Engine
	desired []int
	deps    []string // supervisor deployment per bolt (dense operator idx)
	opNames []string // bolt name per dense operator index

	slot       int
	lastReport *telemetry.SlotReport
}

// SubmitTopology deploys a topology: one supervisor deployment per bolt
// with the initial executor counts. A cluster hosts one topology.
func (c *Cluster) SubmitTopology(name string, g *dag.Graph, engine *streamsim.Engine, initial []int) (*Topology, error) {
	if c.topo != nil {
		return nil, fmt.Errorf("storm: cluster already hosts topology %q", c.topo.name)
	}
	if g == nil || engine == nil {
		return nil, errors.New("storm: nil graph or engine")
	}
	if len(initial) != g.NumOperators() {
		return nil, fmt.Errorf("storm: got %d initial executor counts, want %d", len(initial), g.NumOperators())
	}
	t := &Topology{
		name:    name,
		storm:   c,
		graph:   g,
		engine:  engine,
		desired: append([]int(nil), initial...),
		deps:    make([]string, g.NumOperators()),
		opNames: make([]string, g.NumOperators()),
	}
	for i := 0; i < g.NumOperators(); i++ {
		if initial[i] < 1 {
			return nil, fmt.Errorf("storm: bolt %d needs at least one executor", i)
		}
		t.opNames[i] = g.OperatorName(i)
		dep := workerDeployment(name, t.opNames[i])
		if err := c.k8s.CreateDeployment(dep, c.opts.WorkerSpec, initial[i]); err != nil {
			return nil, err
		}
		t.deps[i] = dep
	}
	if err := t.syncEngine(); err != nil {
		return nil, err
	}
	c.topo = t
	return t, nil
}

func workerDeployment(topo, bolt string) string {
	san := strings.ToLower(strings.ReplaceAll(bolt, " ", "-"))
	return fmt.Sprintf("worker-%s-%s", strings.ToLower(topo), san)
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// Graph returns the application DAG.
func (t *Topology) Graph() *dag.Graph { return t.graph }

// EffectiveParallelism returns the Running worker pods per bolt.
func (t *Topology) EffectiveParallelism() []int {
	out := make([]int, len(t.deps))
	for i, dep := range t.deps {
		out[i] = t.storm.k8s.RunningPods(dep)
	}
	return out
}

// EffectiveCPUMilli returns the per-worker CPU template (constant: Storm
// workers are homogeneous slots).
func (t *Topology) EffectiveCPUMilli() []int {
	out := make([]int, len(t.deps))
	for i, dep := range t.deps {
		if spec, ok := t.storm.k8s.DeploymentSpec(dep); ok {
			out[i] = spec.CPUMilli
		}
	}
	return out
}

// Rebalance applies new executor counts (the `storm rebalance` surface),
// charging the deactivation pause when anything changes.
func (t *Topology) Rebalance(executors []int) error {
	if len(executors) != len(t.desired) {
		return fmt.Errorf("storm: got %d executor counts, want %d", len(executors), len(t.desired))
	}
	changed := false
	for i, p := range executors {
		if p < 1 {
			return fmt.Errorf("storm: bolt %d needs at least one executor", i)
		}
		if p != t.desired[i] {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	for i, p := range executors {
		if p != t.desired[i] {
			if err := t.storm.k8s.Scale(t.deps[i], p); err != nil {
				return err
			}
			t.desired[i] = p
		}
	}
	if err := t.syncEngine(); err != nil {
		return err
	}
	t.engine.Pause(t.storm.opts.RebalancePauseSeconds)
	return nil
}

// RescaleResources satisfies the harness's runtime surface; Storm has no
// vertical dimension, so a non-nil CPU vector is rejected unless it
// matches the homogeneous worker spec.
func (t *Topology) RescaleResources(executors []int, cpuMilli []int) error {
	if cpuMilli != nil {
		for i, cpu := range cpuMilli {
			if cpu != 0 && cpu != t.storm.opts.WorkerSpec.CPUMilli {
				return fmt.Errorf("storm: bolt %d requested %dm but Storm workers are fixed at %dm", i, cpu, t.storm.opts.WorkerSpec.CPUMilli)
			}
		}
	}
	return t.Rebalance(executors)
}

func (t *Topology) syncEngine() error {
	if err := t.engine.SetTasks(t.EffectiveParallelism()); err != nil {
		return err
	}
	return t.engine.SetCPU(t.EffectiveCPUMilli())
}

// RunSlot advances the topology by `seconds` ticks, mirroring
// flink.Job.RunSlot.
func (t *Topology) RunSlot(seconds int, rateAt func(sec int) []float64) (*telemetry.SlotReport, error) {
	if err := t.syncEngine(); err != nil {
		return nil, err
	}
	t.engine.BeginSlot()
	acc, err := telemetry.NewSlotAccumulator(t.name, t.slot, t.graph.NumOperators(), t.graph.NumSources(), seconds)
	if err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	droppedBefore := t.engine.DroppedTotal()
	for sec := 0; sec < seconds; sec++ {
		rates := rateAt(sec)
		st, err := t.engine.Tick(rates)
		if err != nil {
			return nil, err
		}
		if err := acc.Tick(rates, st); err != nil {
			return nil, err
		}
		for i, dep := range t.deps {
			t.storm.k8s.SetDeploymentUtil(dep, st.Ops[i].Util)
		}
		t.storm.k8s.Tick(1)
	}
	rep, err := acc.Finish(t.opNames, t.desired, t.EffectiveParallelism(), t.EffectiveCPUMilli(),
		t.engine.DroppedTotal()-droppedBefore, t.storm.k8s.Cost())
	if err != nil {
		return nil, err
	}
	t.slot++
	t.lastReport = rep
	return rep, nil
}

// LastReport returns the most recent slot report (nil before the first).
func (t *Topology) LastReport() *telemetry.SlotReport { return t.lastReport }

// Slot returns the index of the next slot to run.
func (t *Topology) Slot() int { return t.slot }
