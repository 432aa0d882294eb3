package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func newTestCluster(t testing.TB, nodes int) *Cluster {
	t.Helper()
	c := New()
	if err := c.AddNodes("node", nodes, ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResourceSpecValidate(t *testing.T) {
	if err := (ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (ResourceSpec{CPUMilli: 0, MemoryMB: 1}).Validate(); err == nil {
		t.Error("zero CPU accepted")
	}
	if err := (ResourceSpec{CPUMilli: 1, MemoryMB: -1}).Validate(); err == nil {
		t.Error("negative memory accepted")
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	c := New()
	spec := ResourceSpec{CPUMilli: 1000, MemoryMB: 1024}
	if err := c.AddNode("a", spec); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("a", spec); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestCreateScaleDeployment(t *testing.T) {
	c := newTestCluster(t, 2)
	spec := ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}
	if err := c.CreateDeployment("tm", spec, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningPods("tm"); got != 3 {
		t.Fatalf("RunningPods = %d, want 3", got)
	}
	if err := c.Scale("tm", 5); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningPods("tm"); got != 5 {
		t.Fatalf("after scale up RunningPods = %d", got)
	}
	if err := c.Scale("tm", 2); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningPods("tm"); got != 2 {
		t.Fatalf("after scale down RunningPods = %d", got)
	}
	if err := c.Scale("missing", 1); err == nil {
		t.Error("scaling unknown deployment accepted")
	}
	if err := c.Scale("tm", -1); err == nil {
		t.Error("negative replicas accepted")
	}
}

func TestSchedulingCapacityLimit(t *testing.T) {
	c := newTestCluster(t, 1) // 4000 milli total
	spec := ResourceSpec{CPUMilli: 1000, MemoryMB: 1024}
	if err := c.CreateDeployment("tm", spec, 6); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningPods("tm"); got != 4 {
		t.Errorf("RunningPods = %d, want 4 (node capacity)", got)
	}
	if got := c.PendingPods("tm"); got != 2 {
		t.Errorf("PendingPods = %d, want 2", got)
	}
	// Free capacity by scaling down; pending pods should then schedule on
	// the next tick.
	if err := c.Scale("tm", 4); err != nil {
		t.Fatal(err)
	}
	if got := c.RunningPods("tm") + c.PendingPods("tm"); got != 4 {
		t.Errorf("pods after trim = %d, want 4", got)
	}
}

func TestBestFitPacking(t *testing.T) {
	c := New()
	if err := c.AddNode("big", ResourceSpec{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("small", ResourceSpec{CPUMilli: 1000, MemoryMB: 2048}); err != nil {
		t.Fatal(err)
	}
	// One 1-core pod should best-fit onto the small node.
	if err := c.CreateDeployment("d", ResourceSpec{CPUMilli: 1000, MemoryMB: 1024}, 1); err != nil {
		t.Fatal(err)
	}
	pods := c.Pods()
	if len(pods) != 1 || pods[0].NodeName != "small" {
		t.Errorf("best-fit placed pod on %q, want small", pods[0].NodeName)
	}
}

func TestResizeRollsPods(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 500, MemoryMB: 512}, 2); err != nil {
		t.Fatal(err)
	}
	before := c.Pods()
	if err := c.Resize("tm", ResourceSpec{CPUMilli: 1500, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	after := c.Pods()
	if len(after) != 2 {
		t.Fatalf("pods after resize = %d", len(after))
	}
	for _, p := range after {
		if p.Spec.CPUMilli != 1500 {
			t.Errorf("pod %s kept old spec", p.Name)
		}
		for _, old := range before {
			if p.Name == old.Name {
				t.Errorf("pod %s survived rolling resize", p.Name)
			}
		}
	}
}

func TestDeleteDeployment(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 500, MemoryMB: 512}, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDeployment("tm"); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Pods()); got != 0 {
		t.Errorf("pods after delete = %d", got)
	}
	if err := c.DeleteDeployment("tm"); err == nil {
		t.Error("double delete accepted")
	}
}

func TestCostAccrual(t *testing.T) {
	c := New(WithPricePerCoreHour(1.0))
	if err := c.AddNodes("n", 2, ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDeployment("tm", ResourceSpec{CPUMilli: 2000, MemoryMB: 1024}, 2); err != nil {
		t.Fatal(err)
	}
	c.Tick(3600) // 4 cores for 1 hour at $1/core-hour
	if got := c.Cost(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Cost = %v, want 4", got)
	}
	if c.Clock() != 3600 {
		t.Errorf("Clock = %d", c.Clock())
	}
	if c.PricePerCoreHour() != 1.0 {
		t.Errorf("price = %v", c.PricePerCoreHour())
	}
}

func TestTickNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Tick did not panic")
		}
	}()
	New().Tick(-1)
}

func TestPodPhaseString(t *testing.T) {
	if PodPending.String() != "Pending" || PodRunning.String() != "Running" || PodTerminated.String() != "Terminated" {
		t.Error("phase strings wrong")
	}
	if !strings.Contains(PodPhase(9).String(), "9") {
		t.Error("unknown phase string")
	}
}

// nodeKiller is an Injector that removes the named node after the tick
// at the given clock and re-adds it after the next one.
type nodeKiller struct {
	at   int64
	node string
}

func (k *nodeKiller) HoldScheduling(int64) bool { return false }

func (k *nodeKiller) AfterTick(c *Cluster, clock int64) {
	switch clock {
	case k.at:
		_ = c.RemoveNode(k.node)
	case k.at + 1:
		_ = c.AddNode(k.node, ResourceSpec{CPUMilli: 3000, MemoryMB: 8192})
	}
}

// TestTickCostMatchesPerSecondFormula: Tick caches its cost increment
// per (running CPU, seconds), and after a seeded mix of ticks of varying
// length, scales, resizes, pod kills and injector-driven node failures
// the accrued cost equals, bit for bit, the sum of
// runningCPU/1000·seconds/3600·price taken at every tick.
func TestTickCostMatchesPerSecondFormula(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		c := New(WithPricePerCoreHour(0.0731))
		if err := c.AddNodes("n", 4, ResourceSpec{CPUMilli: 3000, MemoryMB: 8192}); err != nil {
			t.Fatal(err)
		}
		deps := []string{"a", "b", "c"}
		for _, d := range deps {
			if err := c.CreateDeployment(d, ResourceSpec{CPUMilli: 1000, MemoryMB: 512}, 2); err != nil {
				t.Fatal(err)
			}
		}
		killer := &nodeKiller{node: "n-1"}
		c.SetInjector(killer)
		r := rand.New(rand.NewSource(seed))
		var want float64
		for step := 0; step < 2000; step++ {
			switch r.Intn(10) {
			case 0:
				_ = c.Scale(deps[r.Intn(len(deps))], 1+r.Intn(5))
			case 1:
				_ = c.Resize(deps[r.Intn(len(deps))], ResourceSpec{CPUMilli: 250 * (1 + r.Intn(6)), MemoryMB: 512})
			case 2:
				if pods := c.Pods(); len(pods) > 0 {
					_ = c.KillPod(pods[r.Intn(len(pods))].Name)
				}
			case 3:
				killer.at = c.Clock() + 1 + int64(r.Intn(3))
			default:
				seconds := int64(r.Intn(4)) // Tick(0) included
				running := 0
				for _, p := range c.Pods() {
					if p.Phase == PodRunning {
						running += p.Spec.CPUMilli
					}
				}
				coreSeconds := float64(running) / 1000 * float64(seconds)
				want += coreSeconds / 3600 * c.PricePerCoreHour()
				c.Tick(seconds)
				if got := c.Cost(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: Cost = %v, per-second formula %v", seed, step, got, want)
				}
			}
		}
	}
}
