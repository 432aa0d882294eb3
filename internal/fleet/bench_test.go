package fleet

import (
	"fmt"
	"testing"

	"dragster/internal/workload"
)

// fleetBenchWindow is how many timed rounds one manager runs before the
// benchmark rebuilds it. Per-tenant GP histories make every round cost a
// little more than the last, so without the rebuild the mean round cost
// would depend on the b.N the harness happens to pick.
const fleetBenchWindow = 16

// benchmarkFleetRound measures one steady-state fleet round (simulate
// every tenant's slot, collect, decide through par.For, apply,
// record) at the given tenant count. Each b.N iteration is
// exactly one Step at round index from..from+fleetBenchWindow−1 of a fresh
// manager: construction, the first round — which admits every tenant and
// builds its stack — and rounds 1..from−1 happen with the timer stopped,
// once per window. warmStart turns on cross-job GP seeding.
func benchmarkFleetRound(b *testing.B, jobs, from int, warmStart bool) {
	b.Helper()
	specs := make([]JobSpec, jobs)
	for i := range specs {
		spec, err := workload.WordCount()
		if err != nil {
			b.Fatal(err)
		}
		rates, err := workload.Constant(spec.LowRates)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = JobSpec{Name: fmt.Sprintf("job-%04d", i), Workload: spec, Rates: rates}
	}
	admitted := func() *Manager {
		m, err := New(Config{
			Jobs:            specs,
			Slots:           from + fleetBenchWindow,
			SlotSeconds:     30,
			Seed:            3,
			TotalTaskBudget: 4 * jobs,
			MaxQueue:        jobs,
			// Cross-job GP seeding grows the shared archive every round
			// (all tenants here share one workload kind); the round-count
			// rows disable it so the timer sees the control plane, not the
			// archive's growth.
			DisableWarmStart: !warmStart,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Admission round: every tenant arrives, is admitted, and builds
		// its controller stack; then the untimed lead-in rounds.
		for r := 0; r < from; r++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m *Manager
	for i := 0; i < b.N; i++ {
		if i%fleetBenchWindow == 0 {
			b.StopTimer()
			m = admitted()
			b.StartTimer()
		}
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetRound10Jobs(b *testing.B)   { benchmarkFleetRound(b, 10, 1, false) }
func BenchmarkFleetRound100Jobs(b *testing.B)  { benchmarkFleetRound(b, 100, 1, false) }
func BenchmarkFleetRound1000Jobs(b *testing.B) { benchmarkFleetRound(b, 1000, 1, false) }

// BenchmarkFleetRoundWarmEarly100Jobs and BenchmarkFleetRoundWarmLate100Jobs
// time rounds 1–16 and 241–256 of the same warm-started 100-tenant fleet.
// Every tenant GP holds one row per distinct task count, so a late round
// must cost what an early one does: `make bench-flat` holds the pair
// within 1.2× in BENCH_e2e.json.
func BenchmarkFleetRoundWarmEarly100Jobs(b *testing.B) { benchmarkFleetRound(b, 100, 1, true) }
func BenchmarkFleetRoundWarmLate100Jobs(b *testing.B)  { benchmarkFleetRound(b, 100, 241, true) }
