package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// TestFleetScaleWorkerInvariant: the scaled scenario's event trace is a
// pure function of the seed — the decide fan-out's worker count (set
// through GOMAXPROCS) changes wall time, never the hash. Kept at 64
// tenants so the matrix stays test-speed; the 1,000-tenant point runs
// under `benchmark -exp fleetscale` and the BenchmarkFleetRound1000Jobs
// gate.
func TestFleetScaleWorkerInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base, err := FleetScale(FleetScaleConfig{Jobs: 64, Rounds: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if base.TraceEvents == 0 || base.TraceHash == 0 {
		t.Fatalf("empty trace: %+v", base)
	}
	if base.TotalTasks == 0 {
		t.Fatal("no tasks placed")
	}
	for _, procs := range []int{4, 16} {
		runtime.GOMAXPROCS(procs)
		got, err := FleetScale(FleetScaleConfig{Jobs: 64, Rounds: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceHash != base.TraceHash || got.TraceEvents != base.TraceEvents {
			t.Fatalf("GOMAXPROCS=%d: trace (%d events, %016x) diverged from the serial run (%d events, %016x)",
				procs, got.TraceEvents, got.TraceHash, base.TraceEvents, base.TraceHash)
		}
	}
}

func TestRenderFleetScale(t *testing.T) {
	r, err := FleetScale(FleetScaleConfig{Jobs: 16, Rounds: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFleetScale(&sb, r)
	out := sb.String()
	for _, want := range []string{"16 tenants", "2 steady-state rounds", "hash"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "steady-state round:") {
		t.Fatalf("timing lines rendered without an injected clock:\n%s", out)
	}
}
