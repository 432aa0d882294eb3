package core

import (
	"slices"
	"testing"

	"dragster/internal/gp"
	"dragster/internal/stats"
)

// countingKernel counts Eval calls on the kernel it wraps.
type countingKernel struct {
	inner gp.Kernel
	n     *int
}

func (k countingKernel) Eval(x, y []float64) float64 {
	*k.n++
	return k.inner.Eval(x, y)
}

// TestGridReadsEvaluateNoKernel warms a budgeted controller, wraps every
// GP kernel in an Eval counter and checks that the per-slot reads at grid
// points — the bottleneck estimate, the projection's taskLoss and every
// rebalanceUnderBudget trial move — are served from the searchers'
// posterior tables, evaluating no kernel. A whole decision on a snapshot
// that repeats observed configurations evaluates none either.
func TestGridReadsEvaluateNoKernel(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.TaskBudget = 8 })
	rng := stats.NewRNG(4)
	tasks := []int{1, 1}
	slot := 0
	for ; slot < 12; slot++ {
		next, err := c.Decide(snapshotAt(slot, 500, tasks, rng))
		if err != nil {
			t.Fatal(err)
		}
		tasks = next
	}
	var evals int
	for _, s := range c.searchers {
		if err := s.Regressor().SetKernel(countingKernel{inner: s.Regressor().Kernel(), n: &evals}); err != nil {
			t.Fatal(err)
		}
		// One read refits the factor and rebuilds the cross-covariance
		// cache under the wrapped kernel.
		if _, _, err := s.PosteriorAt(0); err != nil {
			t.Fatal(err)
		}
	}

	evals = 0
	for i := range c.searchers {
		if _, err := c.meanAt(i, c.lastTasks[i], c.lastCPU[i]); err != nil {
			t.Fatal(err)
		}
		for from := 2; from <= c.maxTasks[i]; from++ {
			c.taskLoss(i, from, 300)
		}
	}
	if evals != 0 {
		t.Errorf("bottleneck estimate and taskLoss evaluated %d kernels, want 0", evals)
	}
	for _, alloc := range [][]int{{1, 7}, {7, 1}, {4, 4}} {
		c.rebalanceUnderBudget(alloc, []float64{500})
	}
	if evals != 0 {
		t.Errorf("rebalanceUnderBudget evaluated %d kernels, want 0", evals)
	}

	// Replay the last slot's allocation: every observation joins an
	// existing row, so the decision evaluates no kernel end to end.
	if _, err := c.Decide(snapshotAt(slot, 500, c.lastTasks, rng)); err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Errorf("a decision at observed configurations evaluated %d kernels, want 0", evals)
	}
}

// TestConfigForIndexMatchesScan checks configFor's task-count index
// against the nearest-candidate scan it short-cuts, on unsorted 1-D and
// 2-D candidate lists with repeated task counts and a gap. The candidate
// index it returns is the one an x-based read looks up: the first equal
// candidate, or −1 exactly when no candidate equals the configuration.
func TestConfigForIndexMatchesScan(t *testing.T) {
	oneD := [][]float64{{3}, {1}, {2}, {3}, {6}, {5}}
	twoD := [][]float64{{2, 1000}, {1, 500}, {2, 500}, {4, 1500}, {1, 2000}, {4, 500}}
	c := newController(t, func(cfg *Config) { cfg.Candidates = [][][]float64{oneD, twoD} })
	for op := range c.byTasks {
		for tasks := -1; tasks <= c.maxTasks[op]+2; tasks++ {
			for _, cpu := range []int{0, 700, 1500} {
				gotK, got := c.configFor(op, tasks, cpu)
				index := c.byTasks[op]
				c.byTasks[op] = nil
				wantK, want := c.configFor(op, tasks, cpu)
				c.byTasks[op] = index
				if gotK != wantK || !slices.Equal(got, want) {
					t.Errorf("op %d configFor(%d, %d) = %d, %v; scan gives %d, %v", op, tasks, cpu, gotK, got, wantK, want)
				}
				if lookup := c.searchers[op].Regressor().CandidateIndex(got); gotK != lookup {
					t.Errorf("op %d configFor(%d, %d) = %v at index %d, lookup gives %d", op, tasks, cpu, got, gotK, lookup)
				}
			}
		}
	}
}
