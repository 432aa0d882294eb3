package fleet

import (
	"testing"

	"dragster/internal/chaos"
)

// TestFleetDecideWorkersByteIdentical pins the determinism property of
// the per-round decide fan-out: every worker count (set through
// GOMAXPROCS) must reproduce the sequential result byte for byte, with
// and without a cluster-level chaos schedule.
func TestFleetDecideWorkersByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		spec func() *chaos.Spec
	}{
		{"plain", func() *chaos.Spec { return nil }},
		{"chaos", func() *chaos.Spec {
			return chaos.NewSpec("fleet-parallel").CrashLastNode(3).HealNode(5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, procs := range decideWorkerCounts {
				cfg := threeJobConfig(t)
				cfg.Chaos = tc.spec()
				got := func() string {
					defer withProcs(procs)()
					return resultFingerprint(t, runFleet(t, cfg))
				}()
				if procs == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("GOMAXPROCS=%d produced different bytes than the serial run", procs)
				}
			}
		})
	}
}
