package workload

import "testing"

// BenchmarkWorkloadSpecs times what a fleet pays per tenant to get its
// application model: one call of each of the six kinds' constructors
// (constructors), and one ByName per kind (byname), the lookup every
// daemon submission and CLI run makes.
func BenchmarkWorkloadSpecs(b *testing.B) {
	b.Run("constructors", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range kinds {
				if _, err := k.spec(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("byname", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range kinds {
				if _, err := ByName(k.name); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
