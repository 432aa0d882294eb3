package experiment

import (
	"errors"
	"reflect"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/core"
	"dragster/internal/monitor"
	"dragster/internal/workload"
)

func chaosScenario(t *testing.T, cs *chaos.Spec, slots int) Scenario {
	t.Helper()
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       slots,
		SlotSeconds: 60,
		Seed:        8,
		Chaos:       cs,
	}
}

// TestSlowRestoreChargesExtraPause arms a slow savepoint restore during
// the exploration phase (when rescales happen every slot) and checks the
// extra downtime lands in the paused-seconds accounting.
func TestSlowRestoreChargesExtraPause(t *testing.T) {
	pausedTotal := func(res *Result) int {
		var s int
		for _, tr := range res.Trace {
			s += tr.PausedSeconds
		}
		return s
	}
	base, err := Run(chaosScenario(t, nil, 8), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(chaosScenario(t, chaos.NewSpec("slow").SlowRestore(2, 120), 8), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.CounterValue("chaos_slow_restores"); got != 1 {
		t.Fatalf("chaos_slow_restores = %d, want 1 (metrics: %v)", got, res.Metrics.Snapshot())
	}
	if pausedTotal(res) < pausedTotal(base)+120 {
		t.Errorf("slow restore not charged: paused %d vs baseline %d",
			pausedTotal(res), pausedTotal(base))
	}
}

// TestBlackoutSkipsDecisionRounds checks the stale-metric defense: during
// a blackout the runner keeps the current configuration and skips the
// optimizer round instead of feeding the learner a fabricated sample.
func TestBlackoutSkipsDecisionRounds(t *testing.T) {
	r, err := NewRunner(chaosScenario(t, chaos.NewSpec("dark").BlackoutMetrics(2, 2), 8), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Result()
	if got := res.Metrics.CounterValue("runner_skipped_rounds"); got != 2 {
		t.Fatalf("runner_skipped_rounds = %d, want 2", got)
	}
	// No decision fired during the blackout: no targets recorded and the
	// configuration carried over unchanged into the next slots.
	for _, s := range []int{2, 3} {
		if res.Trace[s].TargetY != nil {
			t.Errorf("slot %d has optimizer targets despite the blackout", s)
		}
	}
	if !reflect.DeepEqual(res.Trace[2].Tasks, res.Trace[3].Tasks) ||
		!reflect.DeepEqual(res.Trace[3].Tasks, res.Trace[4].Tasks) {
		t.Errorf("configuration changed during blackout: %v %v %v",
			res.Trace[2].Tasks, res.Trace[3].Tasks, res.Trace[4].Tasks)
	}
	if len(res.Trace) != 8 {
		t.Errorf("trace has %d slots, want all 8 (skipped rounds still run the workload)", len(res.Trace))
	}
}

// TestNonInjectedRescaleErrorStaysFatal ensures the bounded-retry path
// only absorbs injected chaos: a genuinely invalid configuration must
// still fail the run.
func TestNonInjectedRescaleErrorStaysFatal(t *testing.T) {
	sc := chaosScenario(t, nil, 6)
	_, err := Run(sc, func(s *Scenario) (core.Autoscaler, error) {
		return brokenPolicy{}, nil
	})
	if err == nil {
		t.Fatal("invalid parallelism vector survived the retrier")
	}
	if errors.Is(err, chaos.ErrInjected) || errors.Is(err, monitor.ErrNoSample) {
		t.Errorf("error misclassified as chaos: %v", err)
	}
}

type brokenPolicy struct{}

func (brokenPolicy) Name() string { return "broken" }
func (brokenPolicy) Decide(*monitor.Snapshot) ([]int, error) {
	return []int{0, 0}, nil // parallelism below the 1-task floor
}
