package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dragster/internal/stats"
)

// checkIndex verifies the incrementally maintained state against a
// recomputation from the pods themselves: the running-CPU and pending
// counters, every node's used resources, the per-deployment pod lists
// and Running counts (RunningPods included), the live set in creation
// order, and Free's running totals against a recount over the nodes and
// the live pods. With walk set it also checks
// that Pods() returns that set and compacts the list, and recounts Free
// from that snapshot; otherwise terminated entries are left for the next
// operation's own walks.
func checkIndex(t *testing.T, c *Cluster, step int, op string, walk bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
	}
	var pods []*Pod
	for _, p := range c.live {
		if p.Phase == PodTerminated {
			continue
		}
		if c.pods[p.Name] != p {
			fail("live list holds %s, which the name index does not", p.Name)
		}
		pods = append(pods, p)
	}
	if dead := len(c.live) - len(pods); dead != c.dead || len(pods) != len(c.pods) {
		fail("live list holds %d entries, %d terminated (counter %d), for %d live pods",
			len(c.live), dead, c.dead, len(c.pods))
	}
	var free ResourceSpec
	if walk {
		snap := c.Pods()
		free = recountFree(c, snap)
		if len(snap) != len(pods) {
			fail("Pods() has %d pods, want %d", len(snap), len(pods))
		}
		for i := range snap {
			if snap[i] != *pods[i] {
				fail("Pods()[%d] = %s, want %s", i, snap[i].Name, pods[i].Name)
			}
		}
		if len(c.live) != len(c.pods) || c.dead != 0 {
			fail("live list holds %d entries after a walk, %d are live", len(c.live), len(c.pods))
		}
	} else {
		snap := make([]Pod, len(pods))
		for i, p := range pods {
			snap[i] = *p
		}
		free = recountFree(c, snap)
	}
	if got := c.Free(); got != free {
		fail("Free = %+v, recount over nodes and live pods = %+v", got, free)
	}
	runningCPU, pending := 0, 0
	usedCPU := map[string]int{}
	usedMem := map[string]int{}
	byDep := map[string][]string{}
	runningByDep := map[string]int{}
	lastSeq := -1
	for _, p := range pods {
		if c.pods[p.Name] == nil {
			fail("Pods() returned %s, which is not live", p.Name)
		}
		seq, err := strconv.Atoi(p.Name[strings.LastIndexByte(p.Name, '-')+1:])
		if err != nil {
			fail("pod name %q has no sequence suffix", p.Name)
		}
		if seq <= lastSeq {
			fail("Pods() out of creation order: %s after sequence %d", p.Name, lastSeq)
		}
		lastSeq = seq
		switch p.Phase {
		case PodRunning:
			runningCPU += p.Spec.CPUMilli
			runningByDep[p.Deployment]++
			usedCPU[p.NodeName] += p.Spec.CPUMilli
			usedMem[p.NodeName] += p.Spec.MemoryMB
		case PodPending:
			pending++
		default:
			fail("Pods() returned %s in phase %v", p.Name, p.Phase)
		}
		byDep[p.Deployment] = append(byDep[p.Deployment], p.Name)
	}
	if c.runningCPU != runningCPU {
		fail("runningCPU counter = %d, running pods reserve %d", c.runningCPU, runningCPU)
	}
	if c.pending != pending {
		fail("pending counter = %d, pending pods = %d", c.pending, pending)
	}
	for name, n := range c.nodes {
		if n.usedCPU != usedCPU[name] || n.usedMem != usedMem[name] {
			fail("node %s uses %dm/%dMB, its running pods %dm/%dMB",
				name, n.usedCPU, n.usedMem, usedCPU[name], usedMem[name])
		}
	}
	for name, d := range c.deployments {
		if len(d.pods) != d.Replicas {
			fail("deployment %s has %d pods, wants %d", name, len(d.pods), d.Replicas)
		}
		for i, p := range d.pods {
			if i >= len(byDep[name]) || byDep[name][i] != p.Name {
				fail("deployment %s pod list %v disagrees with Pods() %v", name, podNames(d.pods), byDep[name])
			}
		}
		if len(byDep[name]) != len(d.pods) {
			fail("deployment %s pod list %v disagrees with Pods() %v", name, podNames(d.pods), byDep[name])
		}
		if got, want := c.RunningPods(name), runningByDep[name]; d.running != want || got != want {
			fail("deployment %s running count = %d (RunningPods %d), its Running pods = %d", name, d.running, got, want)
		}
	}
}

// recountFree is Free recomputed from scratch: the allocatable of every
// node Nodes lists, minus the request of every non-terminated pod in
// pods.
func recountFree(c *Cluster, pods []Pod) ResourceSpec {
	var free ResourceSpec
	for _, n := range c.Nodes() {
		if spec, ok := c.NodeAllocatable(n); ok {
			free.CPUMilli += spec.CPUMilli
			free.MemoryMB += spec.MemoryMB
		}
	}
	for _, p := range pods {
		if p.Phase != PodTerminated {
			free.CPUMilli -= p.Spec.CPUMilli
			free.MemoryMB -= p.Spec.MemoryMB
		}
	}
	return free
}

func podNames(ps []*Pod) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// holdInjector holds scheduling while hold is set.
type holdInjector struct{ hold bool }

func (h *holdInjector) HoldScheduling(int64) bool { return h.hold }
func (h *holdInjector) AfterTick(*Cluster, int64) {}

// TestIndexInvariantsUnderRandomOperations drives a cluster through a
// seeded random mix of every mutating operation, including capacity
// shortages and scheduling holds, and checks the index after each one.
func TestIndexInvariantsUnderRandomOperations(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := stats.NewRNG(seed)
		c := New()
		inj := &holdInjector{}
		c.SetInjector(inj)
		nodeSeq, depSeq := 0, 0
		addNode := func() error {
			nodeSeq++
			return c.AddNode(fmt.Sprintf("n%d", nodeSeq), ResourceSpec{CPUMilli: 2000 + 1000*rng.Intn(3), MemoryMB: 4096})
		}
		randSpec := func() ResourceSpec {
			return ResourceSpec{CPUMilli: 250 * (1 + rng.Intn(6)), MemoryMB: 256 * (1 + rng.Intn(8))}
		}
		pick := func(names []string) string { return names[rng.Intn(len(names))] }
		for i := 0; i < 3; i++ {
			if err := addNode(); err != nil {
				t.Fatal(err)
			}
		}
		sawPending, sawDead, sawOvercommit := false, false, false
		for step := 0; step < 2000; step++ {
			var op string
			var err error
			deps, nodes := c.Deployments(), c.Nodes()
			switch k := rng.Intn(10); {
			case k == 0 || len(deps) == 0:
				depSeq++
				op = "create"
				err = c.CreateDeployment(fmt.Sprintf("d%d", depSeq), randSpec(), rng.Intn(5))
			case k <= 2:
				op = "scale"
				err = c.Scale(pick(deps), rng.Intn(7))
			case k == 3:
				op = "resize"
				err = c.Resize(pick(deps), randSpec())
			case k == 4:
				op = "delete"
				err = c.DeleteDeployment(pick(deps))
			case k == 5:
				op = "add-node"
				err = addNode()
			case k == 6 && len(nodes) > 1:
				op = "remove-node"
				err = c.RemoveNode(pick(nodes))
			case k == 7:
				op = "kill"
				if victims := c.deployments[pick(deps)].pods; len(victims) > 0 {
					err = c.KillPod(victims[rng.Intn(len(victims))].Name)
				}
			default:
				op = "tick"
				inj.hold = rng.Intn(3) == 0
				c.Tick(1)
			}
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			sawPending = sawPending || c.pending > 0
			sawDead = sawDead || c.dead > 0
			sawOvercommit = sawOvercommit || c.Free().CPUMilli < 0
			checkIndex(t, c, step, op, step%3 == 0)
		}
		if !sawPending || !sawDead || !sawOvercommit {
			t.Fatalf("seed %d never reached a pending pod (%v), an uncompacted termination (%v) or reservations past the allocatable (%v)",
				seed, sawPending, sawDead, sawOvercommit)
		}
	}
}

// TestLiveListDoesNotLeak pins that scale-up/scale-down churn leaves the
// internal live list bounded by the live set: terminated pods wait only
// until the next walk, never accumulate.
func TestLiveListDoesNotLeak(t *testing.T) {
	c := newTestCluster(t, 4)
	spec := ResourceSpec{CPUMilli: 500, MemoryMB: 512}
	if err := c.CreateDeployment("steady", spec, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDeployment("churn", spec, 1); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 1000; cycle++ {
		if err := c.Scale("churn", 6); err != nil {
			t.Fatal(err)
		}
		if err := c.Scale("churn", 1); err != nil {
			t.Fatal(err)
		}
		c.Tick(1)
	}
	// The last scale-down removed 5 pods that no walk has visited yet.
	if live := len(c.pods); live != 4 || len(c.live) > live+5 {
		t.Fatalf("after 1000 cycles live list holds %d entries for %d live pods", len(c.live), live)
	}
	c.Pods()
	if len(c.live) != len(c.pods) {
		t.Fatalf("after a walk live list holds %d entries for %d live pods", len(c.live), len(c.pods))
	}
	for _, p := range c.live {
		if p.Phase == PodTerminated {
			t.Fatalf("live list holds terminated pod %s", p.Name)
		}
	}
}

func TestSteadyStateClusterCallsDoNotAllocate(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}, 3); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Tick(1) }); n != 0 {
		t.Errorf("Tick(1) with nothing pending allocates %v times", n)
	}
}
