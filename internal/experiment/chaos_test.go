package experiment

import (
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/workload"
)

// TestChaosDegradesAndRecovers kills a worker node mid-run and adds a
// replacement later, checking the throughput dip and recovery through the
// full policy loop.
func TestChaosDegradesAndRecovers(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       24,
		SlotSeconds: 60,
		Seed:        8,
		Chaos:       chaos.NewSpec("node-loss").CrashLastNode(10).HealNode(16),
	}, DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	pre := res.Trace[9].TotalTasks
	post := res.Trace[10].TotalTasks
	if post >= pre {
		t.Errorf("node failure did not reduce effective tasks: %d → %d", pre, post)
	}
	// Throughput must not increase while degraded (it may survive intact
	// when the dead node happened to carry only slack pods — placement is
	// the scheduler's choice, not the test's).
	if res.Trace[10].SteadyThroughput > res.Trace[9].SteadyThroughput+1e-9 {
		t.Errorf("throughput increased under failure: %v → %v",
			res.Trace[9].SteadyThroughput, res.Trace[10].SteadyThroughput)
	}
	// After the heal the run returns to near-optimal.
	final := res.Trace[len(res.Trace)-1]
	opt := res.OptimaByPhase[0]
	if final.SteadyThroughput < NearOptimalFraction*opt.Throughput {
		t.Errorf("no recovery after heal: %v vs optimal %v", final.SteadyThroughput, opt.Throughput)
	}
}

func TestChaosValidation(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Scenario{
		Spec: spec, Rates: rates, Slots: 2, Chaos: chaos.NewSpec("neg").CrashLastNode(-1),
	}, DragsterSaddle()); err == nil {
		t.Error("negative chaos slot accepted")
	}
}
