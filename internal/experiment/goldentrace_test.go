package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

// goldenScenario is the scaled-down quickstart setup the golden-trace
// tests replay: the WordCount workload at its high constant load, six
// one-minute slots, fixed seed.
func goldenScenario(t *testing.T, tr *telemetry.Tracer, chaosName string) Scenario {
	t.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       6,
		SlotSeconds: 60,
		Seed:        11,
		Tracer:      tr,
	}
	if chaosName != "" {
		cs, err := chaos.ByName(chaosName)
		if err != nil {
			t.Fatal(err)
		}
		sc.Chaos = cs
	}
	return sc
}

func runGolden(t *testing.T, chaosName string) (*Result, []byte) {
	t.Helper()
	tr := telemetry.NewTracer()
	tr.SetMetrics(telemetry.NewRegistry())
	res, err := Run(goldenScenario(t, tr, chaosName), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestGoldenTraceByteIdentical is the tentpole determinism oracle: the
// same seeded scenario, traced twice in one process, must export
// byte-identical JSONL. Any wall-clock leak, map-order dependence, or
// goroutine-order dependence in an emission point shows up here as a
// byte diff.
func TestGoldenTraceByteIdentical(t *testing.T) {
	for _, chaosName := range []string{"", "savepoint-storm"} {
		name := chaosName
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			_, first := runGolden(t, chaosName)
			_, second := runGolden(t, chaosName)
			if len(first) == 0 {
				t.Fatal("traced run exported an empty trace")
			}
			if !bytes.Equal(first, second) {
				at := len(first)
				n := len(first)
				if len(second) < n {
					n = len(second)
				}
				for i := 0; i < n; i++ {
					if first[i] != second[i] {
						at = i
						break
					}
				}
				t.Fatalf("seeded traces differ (lengths %d vs %d), first divergence at byte %d", len(first), len(second), at)
			}
		})
	}
}

// TestNilTracerLeavesRunUnchanged pins the zero-overhead contract: a run
// with no tracer installed must produce exactly the Result a traced run
// of the same seed produces — installing observability may never perturb
// the simulation or the optimizer.
func TestNilTracerLeavesRunUnchanged(t *testing.T) {
	plain, err := Run(goldenScenario(t, nil, "savepoint-storm"), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	traced, trace := runGolden(t, "savepoint-storm")
	if len(trace) == 0 {
		t.Fatal("traced run exported an empty trace")
	}
	if !reflect.DeepEqual(plain.Trace, traced.Trace) {
		t.Error("slot traces differ between nil-tracer and traced runs")
	}
	if p, tr := plain.Metrics.CounterValue("runner_skipped_rounds"), traced.Metrics.CounterValue("runner_skipped_rounds"); p != tr {
		t.Errorf("skipped rounds differ: %d vs %d", p, tr)
	}
	if !reflect.DeepEqual(plain.PhaseStarts, traced.PhaseStarts) {
		t.Error("phase starts differ between nil-tracer and traced runs")
	}
}

// TestTracedRunSpanInventory sanity-checks that every wired layer
// actually emitted: the trace must contain spans from the experiment,
// core, osp, ucb, gp, flink, cluster, monitor, and chaos categories and
// one round span per slot.
func TestTracedRunSpanInventory(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.SetMetrics(telemetry.NewRegistry())
	if _, err := Run(goldenScenario(t, tr, "savepoint-storm"), DragsterSaddle()); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byCat := map[string]int{}
	rounds := 0
	for _, sp := range spans {
		byCat[sp.Cat]++
		if sp.Cat == "experiment" && sp.Name == "round" {
			rounds++
		}
	}
	for _, cat := range []string{"experiment", "core", "osp", "ucb", "gp", "flink", "cluster", "monitor", "chaos"} {
		if byCat[cat] == 0 {
			t.Errorf("no spans in category %q", cat)
		}
	}
	if rounds != 6 {
		t.Errorf("got %d round spans, want 6", rounds)
	}
	if got := tr.Metrics().CounterValue("experiment_rounds"); got != 6 {
		t.Errorf("experiment_rounds = %d, want 6", got)
	}
}
