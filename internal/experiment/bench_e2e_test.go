package experiment

import (
	"fmt"
	"testing"

	"dragster/internal/workload"
)

// End-to-end harness benchmarks: unlike the GP/linalg micro-benchmarks
// these run the whole stack per iteration — cluster, substrate, dataflow
// engine, monitor, controller — so they pin the rounds/sec a perf PR
// actually buys. `make bench-e2e` snapshots them into BENCH_e2e.json and
// CI gates regressions against that file.

// benchScenario is a deliberately small but complete run: the WordCount
// workload at its high rate, short slots so the per-round fixed costs
// (decide, rescale, monitor collect) are not drowned by tick volume.
func benchScenario(b *testing.B) Scenario {
	b.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		b.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		b.Fatal(err)
	}
	return Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       6,
		SlotSeconds: 30,
		Seed:        1,
	}
}

// BenchmarkRunRoundsPerSec measures full single-run throughput and
// reports it in decision rounds per wall-clock second — the headline
// number for the hot-path work (Tick flattening, scratch reuse).
func BenchmarkRunRoundsPerSec(b *testing.B) {
	sc := benchScenario(b)
	factory := DragsterSaddle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc, factory); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rounds := float64(b.N) * float64(sc.Slots)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(rounds/secs, "rounds/sec")
	}
}

// BenchmarkRepeat8Seeds pins the parallel Repeat fan-out: the same
// 8-seed set at 1 worker (the sequential baseline) and 4 workers. On
// multi-core hardware workers=4 should land near a 4x speedup; the
// outputs are byte-identical either way (see parallel_test.go).
func BenchmarkRepeat8Seeds(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sc := benchScenario(b)
			sc.Slots = 4
			factory := DragsterSaddle()
			seeds := Seeds(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repeat(sc, factory, seeds, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
