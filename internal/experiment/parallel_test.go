package experiment

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

func parallelScenario(t *testing.T) Scenario {
	t.Helper()
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       6,
		SlotSeconds: 60,
	}
}

// resultJSON renders one run to comparable bytes: the registry's
// counter records (it carries a mutex), the rest via JSON. It nils the
// Metrics field, so fingerprint each result only once.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	cs := counterRecords(res.Metrics)
	res.Metrics = nil
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b) + "\n" + cs
}

// counterRecords renders a registry's counters in name order.
func counterRecords(reg *telemetry.Registry) string {
	var sb strings.Builder
	for _, rec := range reg.Snapshot() {
		if rec.Kind == "counter" {
			fmt.Fprintf(&sb, "%s=%v ", rec.Name, rec.Value)
		}
	}
	return sb.String()
}

func repeatFingerprint(t *testing.T, rr *RepeatResult) string {
	t.Helper()
	var sb strings.Builder
	for _, res := range rr.Runs {
		sb.WriteString(resultJSON(t, res))
	}
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatalf("marshal repeat result: %v", err)
	}
	return string(b) + "\n" + sb.String()
}

// TestRepeatWorkersByteIdentical is the determinism property behind the
// parallel fan-out: the same seed set must produce byte-identical
// per-seed results and aggregates at every worker count, with and
// without a chaos schedule in the loop.
func TestRepeatWorkersByteIdentical(t *testing.T) {
	seeds := []int64{2, 5, 9}
	cases := []struct {
		name string
		spec func() *chaos.Spec
	}{
		{"plain", func() *chaos.Spec { return nil }},
		{"chaos", func() *chaos.Spec {
			return chaos.NewSpec("parallel-chaos").CrashLastNode(2).HealNode(4).BlackoutMetrics(3, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4, 0} {
				sc := parallelScenario(t)
				sc.Chaos = tc.spec()
				rr, err := repeat(sc, DragsterSaddle(), seeds, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := repeatFingerprint(t, rr)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d produced different bytes than workers=1 (lengths %d vs %d)",
						workers, len(got), len(want))
				}
			}
		})
	}
}

// TestRepeatWorkersErrorIsSeedOrdered pins the failure contract: when
// several seeds fail, the reported error is the lowest-index one, the
// same a sequential Repeat would surface first.
func TestRepeatWorkersErrorIsSeedOrdered(t *testing.T) {
	sc := parallelScenario(t)
	sc.InitialTasks = []int{1} // wrong arity: every seed fails in NewRunner
	_, err := repeat(sc, DragsterSaddle(), []int64{3, 7, 11}, 4)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "seed 3:") {
		t.Errorf("error %q does not name the first seed", err)
	}
}
