// Package cluster simulates the Kubernetes substrate Dragster runs on: a
// set of nodes with allocatable CPU/memory, deployments of pods, a best-fit
// scheduler, and a cost meter. It models exactly the surface the paper's
// implementation touches — replica scaling (HPA), resource resizing (VPA)
// and dollar cost — without pretending to be a full orchestrator. Pod CPU
// utilization reaches the Job Monitor in the substrate's slot report.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"dragster/internal/telemetry"
)

// ResourceSpec is a pod resource request.
type ResourceSpec struct {
	CPUMilli int // millicores
	MemoryMB int
}

// Validate reports whether the spec is usable.
func (r ResourceSpec) Validate() error {
	if r.CPUMilli <= 0 || r.MemoryMB <= 0 {
		return fmt.Errorf("cluster: resource spec must be positive, got %+v", r)
	}
	return nil
}

// add adds sign·r to s.
func (s *ResourceSpec) add(r ResourceSpec, sign int) {
	s.CPUMilli += sign * r.CPUMilli
	s.MemoryMB += sign * r.MemoryMB
}

// PodPhase is a pod lifecycle phase.
type PodPhase int

// Pod phases: Pending pods are awaiting scheduling; Running pods consume
// node resources and accrue cost; Terminated pods are kept briefly for
// observability and then garbage-collected.
const (
	PodPending PodPhase = iota
	PodRunning
	PodTerminated
)

// String implements fmt.Stringer.
func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodRunning:
		return "Running"
	case PodTerminated:
		return "Terminated"
	default:
		return fmt.Sprintf("PodPhase(%d)", int(p))
	}
}

// Pod is one scheduled unit. In the Flink layer a Running pod provides one
// TaskManager slot.
type Pod struct {
	Name       string
	Deployment string
	Spec       ResourceSpec
	Phase      PodPhase
	NodeName   string // empty while pending

	owner *Deployment // the deployment whose pod list holds it
}

// Deployment manages a replica set of identical pods.
type Deployment struct {
	Name     string
	Spec     ResourceSpec
	Replicas int // desired

	pods    []*Pod // live pods, in creation order
	running int    // of pods, how many are Running
}

// node is a worker machine.
type node struct {
	name        string
	allocatable ResourceSpec
	usedCPU     int
	usedMem     int
}

// Injector is the cluster-side fault-injection hook. A chaos engine
// installs one via SetInjector; with none installed every hook site is a
// no-op, so fault-free runs execute the exact pre-hook code path.
//
// Implementations must be deterministic functions of their own seeded
// state and the observable cluster state: the hooks are called at fixed
// points of the simulation, so a deterministic injector yields a
// deterministic fault trace.
type Injector interface {
	// HoldScheduling reports whether the scheduler must skip placing
	// pending pods at the given cluster clock (a scheduler delay spike).
	// Pods stay Pending until a pass where this returns false.
	HoldScheduling(clock int64) bool
	// AfterTick runs after each Tick advance (including Tick(0)) so the
	// injector can mutate the cluster — kill or heal nodes, OOM-kill pods
	// — on its own schedule. It must not call c.Tick (re-entrance).
	AfterTick(c *Cluster, clock int64)
}

// Cluster is the simulated control plane. It is not safe for concurrent
// use; the experiment loop drives it from one goroutine, mirroring a
// single-threaded controller.
type Cluster struct {
	nodes       map[string]*node
	nodeOrder   []*node // the live nodes in registration order
	deployments map[string]*Deployment
	pods        map[string]*Pod // live pods by name

	// live holds the live pods in creation order. Termination only counts
	// the pod in dead; the next walk over live (livePods) compacts it, so
	// removing a pod costs O(1) and the list never outgrows the live set
	// by more than the pods removed since the last walk.
	live []*Pod
	dead int

	// pending and runningCPU, like each deployment's running count, are
	// maintained at placement, eviction and termination, so Tick reads
	// the reserved CPU in O(1) and skips the scheduling pass when no pod
	// waits.
	pending    int
	runningCPU int

	// allocatable totals the live nodes' allocatable resources and
	// reserved the requests of the live (pending or running) pods. Node
	// registration and removal, pod creation and termination keep both
	// current, so Free is O(1).
	allocatable ResourceSpec
	reserved    ResourceSpec

	clock       int64 // seconds
	podSeq      int
	pricePerCPU float64 // dollars per core·hour
	cost        float64 // accrued dollars

	// tickCost caches Tick's cost increment for tickCPU millicores
	// running over tickSeconds: the reserved CPU changes only at
	// placement, eviction and termination, while Tick runs every
	// simulated second. tickSeconds < 0 marks the cache empty.
	tickCPU     int
	tickSeconds int64
	tickCost    float64

	injector Injector
	tracer   *telemetry.Tracer
}

// SetInjector installs (or, with nil, removes) the fault-injection hook.
func (c *Cluster) SetInjector(in Injector) { c.injector = in }

// SetTracer installs (or, with nil, removes) the observability tracer.
// The cluster emits one "place" event per pod placement — the scheduler
// decisions that determine effective parallelism. All tracer methods are
// no-ops on a nil tracer, so untraced runs execute the pre-hook path.
func (c *Cluster) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

// Option configures a Cluster.
type Option func(*Cluster)

// DefaultPricePerCoreHour is the dollar price of one CPU core for one
// hour unless WithPricePerCoreHour overrides it: roughly a small cloud
// VM core.
const DefaultPricePerCoreHour = 0.08

// WithPricePerCoreHour sets the dollar price of one CPU core for one hour
// (default DefaultPricePerCoreHour).
func WithPricePerCoreHour(p float64) Option {
	return func(c *Cluster) { c.pricePerCPU = p }
}

// New returns an empty cluster.
func New(opts ...Option) *Cluster {
	c := &Cluster{
		nodes:       make(map[string]*node),
		deployments: make(map[string]*Deployment),
		pods:        make(map[string]*Pod),
		pricePerCPU: DefaultPricePerCoreHour,
		tickSeconds: -1,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// AddNode registers a worker node.
func (c *Cluster) AddNode(name string, allocatable ResourceSpec) error {
	if err := allocatable.Validate(); err != nil {
		return err
	}
	if _, ok := c.nodes[name]; ok {
		return fmt.Errorf("cluster: node %q already exists", name)
	}
	n := &node{name: name, allocatable: allocatable}
	c.nodes[name] = n
	c.nodeOrder = append(c.nodeOrder, n)
	c.allocatable.add(allocatable, 1)
	return nil
}

// AddNodes registers count identical nodes named prefix-0..count-1.
func (c *Cluster) AddNodes(prefix string, count int, allocatable ResourceSpec) error {
	for i := 0; i < count; i++ {
		if err := c.AddNode(prefix+"-"+strconv.Itoa(i), allocatable); err != nil {
			return err
		}
	}
	return nil
}

// RemoveNode simulates a node failure: the node leaves the cluster and
// every pod running on it is recreated as Pending, to be rescheduled onto
// the remaining nodes at the next scheduling pass (possibly staying
// Pending if capacity is short — exactly the degraded-parallelism signal
// the autoscalers must cope with).
func (c *Cluster) RemoveNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	c.allocatable.add(n.allocatable, -1)
	delete(c.nodes, name)
	c.nodeOrder = slices.DeleteFunc(c.nodeOrder, func(nn *node) bool { return nn == n })
	// Evict: mark the victims pending and clear their placement. The
	// deployment's desired count is unchanged, so reconcile/schedule will
	// try to place them elsewhere.
	for _, p := range c.livePods() {
		if p.NodeName != name {
			continue
		}
		c.runningCPU -= p.Spec.CPUMilli
		p.owner.running--
		c.pending++
		p.Phase = PodPending
		p.NodeName = ""
	}
	c.schedule()
	return nil
}

// KillPod simulates an OOM-kill (or any abrupt single-pod death): the pod
// is terminated and its deployment reconciled, so a fresh replacement pod
// is created Pending and scheduled when capacity (and the scheduler)
// allow. Returns ErrUnknownPod for missing pods.
func (c *Cluster) KillPod(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return ErrUnknownPod
	}
	d := c.deployments[p.Deployment]
	d.pods = slices.DeleteFunc(d.pods, func(q *Pod) bool { return q == p })
	c.terminatePod(p)
	c.reconcile(d)
	return nil
}

// Nodes returns the live node names in registration order.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.nodeOrder))
	for i, n := range c.nodeOrder {
		out[i] = n.name
	}
	return out
}

// NodeAllocatable returns a node's allocatable resources.
func (c *Cluster) NodeAllocatable(name string) (ResourceSpec, bool) {
	n, ok := c.nodes[name]
	if !ok {
		return ResourceSpec{}, false
	}
	return n.allocatable, true
}

// CreateDeployment declares a deployment with the given pod template and
// desired replica count, then reconciles.
func (c *Cluster) CreateDeployment(name string, spec ResourceSpec, replicas int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if replicas < 0 {
		return fmt.Errorf("cluster: negative replicas %d", replicas)
	}
	if _, ok := c.deployments[name]; ok {
		return fmt.Errorf("cluster: deployment %q already exists", name)
	}
	d := &Deployment{Name: name, Spec: spec, Replicas: replicas}
	c.deployments[name] = d
	c.reconcile(d)
	return nil
}

// Scale sets the desired replica count of a deployment (the HPA surface)
// and reconciles immediately.
func (c *Cluster) Scale(deployment string, replicas int) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	if replicas < 0 {
		return fmt.Errorf("cluster: negative replicas %d", replicas)
	}
	d.Replicas = replicas
	c.reconcile(d)
	return nil
}

// Resize changes the pod template of a deployment (the VPA surface) and
// performs a rolling replacement of all pods.
func (c *Cluster) Resize(deployment string, spec ResourceSpec) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	d.Spec = spec
	// Rolling replacement: terminate existing pods, let reconcile recreate.
	c.terminateAll(d)
	c.reconcile(d)
	return nil
}

// DeleteDeployment removes the deployment and terminates its pods.
func (c *Cluster) DeleteDeployment(deployment string) error {
	d, ok := c.deployments[deployment]
	if !ok {
		return fmt.Errorf("cluster: unknown deployment %q", deployment)
	}
	c.terminateAll(d)
	delete(c.deployments, deployment)
	return nil
}

// reconcile drives the pod set of a deployment towards its desired state
// and schedules pending pods.
func (c *Cluster) reconcile(d *Deployment) {
	for len(d.pods) > d.Replicas {
		// Scale down newest-first so long-lived pods keep their slots.
		c.terminatePod(d.pods[len(d.pods)-1])
		d.pods = d.pods[:len(d.pods)-1]
	}
	for len(d.pods) < d.Replicas {
		c.podSeq++
		p := &Pod{
			Name:       d.Name + "-" + strconv.Itoa(c.podSeq),
			Deployment: d.Name,
			Spec:       d.Spec,
			Phase:      PodPending,
			owner:      d,
		}
		c.pods[p.Name] = p
		c.live = append(c.live, p)
		c.pending++
		c.reserved.add(p.Spec, 1)
		d.pods = append(d.pods, p)
	}
	c.schedule()
}

// schedule assigns pending pods to nodes with a best-fit policy (the node
// whose remaining CPU after placement is smallest), mirroring the default
// kube-scheduler's bin-packing tendency under LeastAllocated inversion.
func (c *Cluster) schedule() {
	if c.pending == 0 {
		return
	}
	if c.injector != nil && c.injector.HoldScheduling(c.clock) {
		return // delay spike: pending pods wait for a later pass
	}
	for _, p := range c.livePods() {
		if p.Phase != PodPending {
			continue
		}
		var best *node
		bestLeft := -1
		for _, n := range c.nodeOrder {
			leftCPU := n.allocatable.CPUMilli - n.usedCPU - p.Spec.CPUMilli
			leftMem := n.allocatable.MemoryMB - n.usedMem - p.Spec.MemoryMB
			if leftCPU < 0 || leftMem < 0 {
				continue
			}
			if best == nil || leftCPU < bestLeft {
				best, bestLeft = n, leftCPU
			}
		}
		if best == nil {
			continue // stays pending
		}
		best.usedCPU += p.Spec.CPUMilli
		best.usedMem += p.Spec.MemoryMB
		c.runningCPU += p.Spec.CPUMilli
		p.owner.running++
		c.pending--
		p.NodeName = best.name
		p.Phase = PodRunning
		c.tracer.Event("cluster", "place",
			telemetry.Str("pod", p.Name),
			telemetry.Str("node", best.name),
			telemetry.Int("cpu_milli", p.Spec.CPUMilli))
		c.tracer.Metrics().Inc("cluster_pods_placed")
	}
}

// terminatePod releases p's node resources and drops it from the name
// index. The caller removes it from its deployment's pod list; live is
// compacted by the next walk.
func (c *Cluster) terminatePod(p *Pod) {
	switch p.Phase {
	case PodRunning:
		n := c.nodes[p.NodeName]
		n.usedCPU -= p.Spec.CPUMilli
		n.usedMem -= p.Spec.MemoryMB
		c.runningCPU -= p.Spec.CPUMilli
		p.owner.running--
	case PodPending:
		c.pending--
	}
	c.reserved.add(p.Spec, -1)
	p.Phase = PodTerminated
	delete(c.pods, p.Name)
	c.dead++
}

// terminateAll terminates every pod of d.
func (c *Cluster) terminateAll(d *Deployment) {
	for _, p := range d.pods {
		c.terminatePod(p)
	}
	d.pods = d.pods[:0]
}

// livePods returns the live pods in creation order, first compacting out
// the pods terminated since the last walk.
func (c *Cluster) livePods() []*Pod {
	if c.dead > 0 {
		kept := c.live[:0]
		for _, p := range c.live {
			if p.Phase != PodTerminated {
				kept = append(kept, p)
			}
		}
		clear(c.live[len(kept):])
		c.live = kept
		c.dead = 0
	}
	return c.live
}

// RunningPods returns the number of Running pods in a deployment (0 for
// an unknown one) — the effective parallelism the Flink layer sees.
func (c *Cluster) RunningPods(deployment string) int {
	if d, ok := c.deployments[deployment]; ok {
		return d.running
	}
	return 0
}

// PendingPods returns the number of unschedulable pods in a deployment
// (0 for an unknown one).
func (c *Cluster) PendingPods(deployment string) int {
	d, ok := c.deployments[deployment]
	if !ok {
		return 0
	}
	n := 0
	for _, p := range d.pods {
		if p.Phase == PodPending {
			n++
		}
	}
	return n
}

// Pods returns a snapshot (copies) of all live pods, ordered by creation.
func (c *Cluster) Pods() []Pod {
	live := c.livePods()
	out := make([]Pod, len(live))
	for i, p := range live {
		out[i] = *p
	}
	return out
}

// DeploymentSpec returns a deployment's current pod template.
func (c *Cluster) DeploymentSpec(name string) (ResourceSpec, bool) {
	d, ok := c.deployments[name]
	if !ok {
		return ResourceSpec{}, false
	}
	return d.Spec, true
}

// Deployments returns the deployment names in sorted order.
func (c *Cluster) Deployments() []string {
	out := make([]string, 0, len(c.deployments))
	for name := range c.deployments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Free returns the live nodes' allocatable resources minus the requests
// of every live (running or pending) pod: what is left to reserve.
func (c *Cluster) Free() ResourceSpec {
	return ResourceSpec{
		CPUMilli: c.allocatable.CPUMilli - c.reserved.CPUMilli,
		MemoryMB: c.allocatable.MemoryMB - c.reserved.MemoryMB,
	}
}

// Tick advances the cluster clock by the given seconds, accruing cost for
// every running pod and retrying scheduling of pending pods.
func (c *Cluster) Tick(seconds int64) {
	if seconds < 0 {
		panic("cluster: negative tick")
	}
	c.clock += seconds
	if c.runningCPU != c.tickCPU || seconds != c.tickSeconds {
		coreSeconds := float64(c.runningCPU) / 1000 * float64(seconds)
		c.tickCPU, c.tickSeconds, c.tickCost = c.runningCPU, seconds, coreSeconds/3600*c.pricePerCPU
	}
	c.cost += c.tickCost
	c.schedule()
	if c.injector != nil {
		c.injector.AfterTick(c, c.clock)
	}
}

// Clock returns the cluster time in seconds since start.
func (c *Cluster) Clock() int64 { return c.clock }

// Cost returns the dollars accrued so far.
func (c *Cluster) Cost() float64 { return c.cost }

// PricePerCoreHour returns the configured price.
func (c *Cluster) PricePerCoreHour() float64 { return c.pricePerCPU }

// ErrUnknownPod is returned by operations on missing pods.
var ErrUnknownPod = errors.New("cluster: unknown pod")
