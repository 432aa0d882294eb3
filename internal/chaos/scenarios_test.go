package chaos_test

// Golden chaos suite: replays every named scenario through the full
// experiment stack (cluster, Flink session, monitor, Dragster controller)
// and asserts the three contract properties:
//
//  1. Determinism — same (Spec, seed) ⇒ identical fault trace, identical
//     fault counters, identical per-slot throughput trace.
//  2. Liveness — the run completes without error or panic and the
//     controller re-converges to the near-optimal configuration.
//  3. Bounded damage — cumulative regret stays within a pinned envelope
//     of the fault-free run.

import (
	"reflect"
	"sync"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/experiment"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

const (
	goldenSlots    = 24
	goldenSlotSecs = 60
	goldenSeed     = 8
)

type goldenRun struct {
	res     *experiment.Result
	trace   []chaos.TraceEntry
	counts  []telemetry.MetricRecord
	skipped int
}

// runGolden executes one scenario to completion through the step-wise
// Runner so the fault trace is observable.
func runGolden(t *testing.T, cs *chaos.Spec) *goldenRun {
	t.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiment.NewRunner(experiment.Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       goldenSlots,
		SlotSeconds: goldenSlotSecs,
		Seed:        goldenSeed,
		Chaos:       cs,
	}, experiment.DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if _, err := r.Step(); err != nil {
			t.Fatalf("step failed: %v", err)
		}
	}
	res := r.Result()
	return &goldenRun{
		res:     res,
		trace:   r.ChaosTrace(),
		counts:  res.Metrics.Snapshot(),
		skipped: int(res.Metrics.CounterValue("runner_skipped_rounds")),
	}
}

// regretFrac is the cumulative regret of a run against its phase-0
// optimum, normalized by the total optimal tuple count — the fraction of
// achievable work lost.
func regretFrac(res *experiment.Result) float64 {
	opt := res.OptimaByPhase[0]
	var lost float64
	for _, tr := range res.Trace {
		if d := opt.Throughput - tr.MeasuredThroughput; d > 0 {
			lost += d * float64(res.SlotSecs)
		}
	}
	return lost / (opt.Throughput * float64(res.SlotSecs) * float64(res.Slots))
}

var (
	baselineOnce sync.Once
	baselineRun  *goldenRun
)

// faultFreeBaseline runs the scenario-free reference once per test binary.
func faultFreeBaseline(t *testing.T) *goldenRun {
	baselineOnce.Do(func() {
		baselineRun = runGolden(t, nil)
	})
	if baselineRun == nil {
		t.Fatal("baseline run failed in an earlier test")
	}
	return baselineRun
}

// goldenEnvelope pins, per scenario, the maximum extra regret fraction
// over the fault-free baseline and the fault counters that must fire.
// The pinned extras carry ~2× headroom over the measured values (node-flap
// measures ≈0.073 extra; the rescale-fault scenarios measure slightly
// negative extras because aborted exploration rescales skip savepoint
// pauses).
var goldenEnvelope = map[string]struct {
	maxExtraRegret float64
	wantCounters   map[string]int64
	wantSkipped    int
}{
	"node-flap": {
		maxExtraRegret: 0.15,
		wantCounters:   map[string]int64{"chaos_node_crashes": 3, "chaos_node_heals": 3},
	},
	"savepoint-storm": {
		maxExtraRegret: 0.10,
		wantCounters:   map[string]int64{"chaos_savepoint_failures": 4, "rescale_failures": 4},
	},
	"metrics-blackout": {
		maxExtraRegret: 0.10,
		wantCounters:   map[string]int64{"chaos_metrics_blackouts": 3, "chaos_metrics_stale": 2},
		wantSkipped:    5,
	},
	"rescale-timeout": {
		maxExtraRegret: 0.10,
		wantCounters:   map[string]int64{"chaos_rescale_timeouts": 4, "rescale_failures": 4},
	},
}

func TestGoldenScenarios(t *testing.T) {
	if len(goldenEnvelope) != len(chaos.Names()) {
		t.Fatalf("envelope covers %d scenarios, registry has %v", len(goldenEnvelope), chaos.Names())
	}
	base := faultFreeBaseline(t)
	baseFrac := regretFrac(base.res)
	if len(base.trace) != 0 || len(base.counts) != 0 {
		t.Fatalf("fault-free baseline injected faults: trace=%v counters=%v", base.trace, base.counts)
	}

	for _, name := range chaos.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			env := goldenEnvelope[name]
			spec, err := chaos.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if spec.MaxSlot() >= goldenSlots-4 {
				t.Fatalf("scenario %s ends at slot %d; leave ≥4 recovery slots of %d", name, spec.MaxSlot(), goldenSlots)
			}
			run1 := runGolden(t, spec)
			spec2, err := chaos.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			run2 := runGolden(t, spec2)

			// 1. Deterministic replay, fault trace and simulation alike.
			if !reflect.DeepEqual(run1.trace, run2.trace) {
				t.Errorf("fault traces diverge between replays:\n%v\n%v", run1.trace, run2.trace)
			}
			if !reflect.DeepEqual(run1.counts, run2.counts) {
				t.Errorf("fault counters diverge between replays:\n%v\n%v", run1.counts, run2.counts)
			}
			if !reflect.DeepEqual(run1.res.Trace, run2.res.Trace) {
				t.Errorf("slot traces diverge between replays")
			}
			if len(run1.trace) == 0 {
				t.Fatalf("scenario injected no faults")
			}

			// 2. The controller survives and re-converges.
			final := run1.res.Trace[len(run1.res.Trace)-1]
			opt := run1.res.OptimaByPhase[0]
			if final.SteadyThroughput < experiment.NearOptimalFraction*opt.Throughput {
				t.Errorf("no recovery: final steady %v < %v×optimal %v",
					final.SteadyThroughput, experiment.NearOptimalFraction, opt.Throughput)
			}

			// 3. Regret envelope over the fault-free baseline.
			frac := regretFrac(run1.res)
			if extra := frac - baseFrac; extra > env.maxExtraRegret {
				t.Errorf("regret envelope exceeded: chaos %0.4f, baseline %0.4f, extra %0.4f > %0.4f",
					frac, baseFrac, extra, env.maxExtraRegret)
			}

			// Fault accounting matches the pinned golden values.
			got := make(map[string]int64, len(run1.counts))
			for _, c := range run1.counts {
				got[c.Name] = int64(c.Value)
			}
			for cname, want := range env.wantCounters {
				if got[cname] != want {
					t.Errorf("counter %s = %d, want %d (all: %v)", cname, got[cname], want, run1.counts)
				}
			}
			if run1.skipped != env.wantSkipped {
				t.Errorf("skipped rounds = %d, want %d", run1.skipped, env.wantSkipped)
			}
		})
	}
}
