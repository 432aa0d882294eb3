package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// deltaSpec is the dynamic tenant the event scenario submits mid-run.
func deltaSpec(t *testing.T) JobSpec {
	t.Helper()
	wc := mustSpec(t, workload.WordCount)
	return JobSpec{Name: "delta", Workload: wc, Rates: constRates(t, wc.LowRates)}
}

// scenarioInputs injects the event scenario's dynamic inputs before the
// given round runs: a submission at round 2, a kill of a running tenant
// at round 5, and a kill at round 6 (the round the failover test uses as
// its checkpoint cut, so the input is pending — not yet delivered — when
// the checkpoint is taken).
func scenarioInputs(t *testing.T, m *Manager, r int) {
	t.Helper()
	switch r {
	case 2:
		if err := m.Submit(deltaSpec(t)); err != nil {
			t.Fatalf("submit delta: %v", err)
		}
	case 5:
		if err := m.Kill("alpha"); err != nil {
			t.Fatalf("kill alpha: %v", err)
		}
	case 6:
		if err := m.Kill("gamma"); err != nil {
			t.Fatalf("kill gamma: %v", err)
		}
	}
}

// decideWorkerCounts are the GOMAXPROCS values the determinism tests run
// the decide fan-out at: serial, fewer workers than tenants, and more
// workers than tenants (par.For caps those at the tenant count).
var decideWorkerCounts = []int{1, 2, 7, 64}

// withProcs sets GOMAXPROCS — the decide fan-out's worker count — to
// procs and returns the call that restores it; procs 0 leaves it as is.
func withProcs(procs int) (restore func()) {
	if procs <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// runEventScenario drives the canonical mixed fleet plus the dynamic
// schedule above to completion at GOMAXPROCS procs (0 = unchanged).
func runEventScenario(t *testing.T, procs int) *Manager {
	t.Helper()
	defer withProcs(procs)()
	m, err := New(threeJobConfig(t))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for !m.Done() {
		scenarioInputs(t, m, m.Round())
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", m.Round(), err)
		}
	}
	return m
}

// firstTraceDiff renders the first line where two traces diverge.
func firstTraceDiff(a, b string) string {
	al, bl := splitLines(a), splitLines(b)
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return "line " + itoa(i) + ":\n got " + la + "\nwant " + lb
		}
	}
	return "traces equal"
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFleetTraceByteIdenticalAcrossWorkers is the headline invariant of
// the event-driven control plane: a fixed seed produces the exact same
// event trace and grant sequence at ANY decide worker count — the
// fan-out is a throughput mechanism, never a behaviour knob.
func TestFleetTraceByteIdenticalAcrossWorkers(t *testing.T) {
	base := runEventScenario(t, 1)
	baseTrace := base.TraceBytes()
	baseText := base.TraceText()
	baseFP := resultFingerprint(t, base.Result())
	if len(base.Events()) == 0 {
		t.Fatal("scenario committed no events")
	}
	for _, procs := range decideWorkerCounts[1:] {
		m := runEventScenario(t, procs)
		if !bytes.Equal(m.TraceBytes(), baseTrace) {
			t.Fatalf("GOMAXPROCS=%d: trace diverged from the serial run:\n%s",
				procs, firstTraceDiff(m.TraceText(), baseText))
		}
		if m.TraceHash() != base.TraceHash() {
			t.Fatalf("GOMAXPROCS=%d: trace hash diverged with equal bytes", procs)
		}
		if fp := resultFingerprint(t, m.Result()); fp != baseFP {
			t.Fatalf("GOMAXPROCS=%d: result fingerprint diverged", procs)
		}
	}
}

// TestFleetTracedRunKeepsTrace: installing a Tracer serializes dispatch
// but must not change the committed event trace.
func TestFleetTracedRunKeepsTrace(t *testing.T) {
	base := runEventScenario(t, 2)

	defer withProcs(7)()
	cfg := threeJobConfig(t)
	cfg.Tracer = telemetry.NewTracer()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for !m.Done() {
		scenarioInputs(t, m, m.Round())
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", m.Round(), err)
		}
	}
	if !bytes.Equal(m.TraceBytes(), base.TraceBytes()) {
		t.Fatalf("traced run's event trace diverged:\n%s",
			firstTraceDiff(m.TraceText(), base.TraceText()))
	}
}

// TestFleetGoldenTrace pins the scenario's full event trace as a golden
// file, so any change to control-plane behaviour — ordering, event
// payloads, admission outcomes — shows up as a reviewable diff. It runs
// at the process's GOMAXPROCS, so CI's fleet-race matrix (GOMAXPROCS 1,
// 2 and 8 under -race) holds every leg to the same golden.
// Regenerate with: go test ./internal/fleet -run TestFleetGoldenTrace -update
func TestFleetGoldenTrace(t *testing.T) {
	m := runEventScenario(t, 0)
	got := m.TraceText()
	path := filepath.Join("testdata", "fleet_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("event trace diverged from golden:\n%s", firstTraceDiff(got, string(want)))
	}
}
