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
// once per window. Every tenant is admitted in round 0, before the
// warm-start archive holds anything, so the timed rounds pay only its
// harvest, which keeps warmStartMaxPerOperator records per operator.
func benchmarkFleetRound(b *testing.B, jobs, from int) {
	b.Helper()
	specs := benchSpecs(b, jobs)
	b.ReportAllocs()
	b.ResetTimer()
	var m *Manager
	for i := 0; i < b.N; i++ {
		if i%fleetBenchWindow == 0 {
			b.StopTimer()
			m = benchFleet(b, specs, from, from+fleetBenchWindow)
			b.StartTimer()
		}
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSpecs returns n WordCount tenants at constant low rates.
func benchSpecs(b *testing.B, n int) []JobSpec {
	b.Helper()
	specs := make([]JobSpec, n)
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
	return specs
}

// benchFleet builds the benchmarks' fleet over specs with the given slot
// horizon and runs its first `rounds` rounds. Round 0 is the admission
// round: every tenant arrives, is admitted, and builds its controller
// stack.
func benchFleet(b *testing.B, specs []JobSpec, rounds, slots int) *Manager {
	b.Helper()
	m, err := New(Config{
		Jobs:            specs,
		Slots:           slots,
		SlotSeconds:     30,
		Seed:            3,
		TotalTaskBudget: 4 * len(specs),
		MaxQueue:        len(specs),
	})
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkFleetRound10Jobs(b *testing.B)   { benchmarkFleetRound(b, 10, 1) }
func BenchmarkFleetRound100Jobs(b *testing.B)  { benchmarkFleetRound(b, 100, 1) }
func BenchmarkFleetRound1000Jobs(b *testing.B) { benchmarkFleetRound(b, 1000, 1) }

// BenchmarkFleetRoundWarmLate100Jobs times rounds 241–256 of the fleet
// BenchmarkFleetRound100Jobs times rounds 1–16 of. Every tenant GP holds
// one row per distinct task count, so a late round must cost what an
// early one does: `make bench-flat` holds the pair within 1.2× in
// BENCH_e2e.json.
func BenchmarkFleetRoundWarmLate100Jobs(b *testing.B) { benchmarkFleetRound(b, 100, 241) }

// benchmarkFleetAdmit times what benchmarkFleetRound sets up untimed at
// the same tenant count: fleet.New and the admission round, in which
// every tenant arrives, is admitted and builds its controller stack.
func benchmarkFleetAdmit(b *testing.B, jobs int) {
	specs := benchSpecs(b, jobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFleet(b, specs, 1, 1+fleetBenchWindow)
	}
}

func BenchmarkFleetAdmit100Jobs(b *testing.B)  { benchmarkFleetAdmit(b, 100) }
func BenchmarkFleetAdmit1000Jobs(b *testing.B) { benchmarkFleetAdmit(b, 1000) }
