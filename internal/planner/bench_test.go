package planner

import (
	"testing"

	"dragster/internal/workload"
)

// BenchmarkPlannerBuild times one capacity plan of the Yahoo pipeline at
// its high rates with the default probe budget: the probe simulations,
// on the plan's one engine and RNG reset and reseeded before each, plus
// the curve fits and the synthesis an admission pays for.
func BenchmarkPlannerBuild(b *testing.B) {
	spec, err := workload.Yahoo()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Spec: spec, TargetRates: spec.HighRates, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
