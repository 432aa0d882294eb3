package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
)

// submitVia posts a dynamic job through the daemon's HTTP surface — the
// path a real operator uses, which is also what records the submission
// for checkpoint replay.
func submitVia(t *testing.T, d *FleetDaemon, req SubmitRequest) {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/fleet/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", req.Name, resp.StatusCode)
	}
}

func traceOf(t *testing.T, d *FleetDaemon) string {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/fleet/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetDaemonFailover: a replica daemon resumed from the primary's
// checkpoint — including a dynamic tenant that arrived over HTTP —
// finishes the run with a byte-identical event trace.
func TestFleetDaemonFailover(t *testing.T) {
	const slots = 8
	dyn := SubmitRequest{Name: "dyn", Workload: "group", Profile: "low"}
	// Reference and primary decide serially (GOMAXPROCS 1).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Uninterrupted reference run.
	ref, err := NewFleet(testFleetConfig(t, slots))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.StepN(2); err != nil {
		t.Fatal(err)
	}
	submitVia(t, ref, dyn)
	if err := ref.StepN(slots); err != nil {
		t.Fatal(err)
	}
	refTrace := traceOf(t, ref)
	if !strings.Contains(refTrace, "submit job=dyn") {
		t.Fatalf("reference trace missing dynamic submission:\n%s", refTrace)
	}

	// Primary fails after round 4.
	primary, err := NewFleet(testFleetConfig(t, slots))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.StepN(2); err != nil {
		t.Fatal(err)
	}
	submitVia(t, primary, dyn)
	if err := primary.StepN(2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(primary.Handler())
	resp, err := http.Get(srv.URL + "/fleet/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Replica takes over at a different decide worker count.
	runtime.GOMAXPROCS(4)
	replica, err := ResumeFleet(testFleetConfig(t, slots), bytes.NewReader(ckBytes))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := replica.StepN(slots); err != nil {
		t.Fatal(err)
	}
	repTrace := traceOf(t, replica)
	if repTrace != refTrace {
		t.Fatalf("replica trace diverged from uninterrupted run:\nreplica:\n%s\nreference:\n%s", repTrace, refTrace)
	}

	// The replica's own checkpoint surface keeps working (second failover).
	var buf bytes.Buffer
	if err := replica.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "daemon_submits") {
		t.Fatal("replica checkpoint lost the submission record")
	}
}

// TestResumeFleetRejectsGarbage: malformed checkpoints are refused.
func TestResumeFleetRejectsGarbage(t *testing.T) {
	if _, err := ResumeFleet(testFleetConfig(t, 4), strings.NewReader("not json")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	if _, err := ResumeFleet(testFleetConfig(t, 4), strings.NewReader(`{"kind":"wrong","version":1}`)); err == nil {
		t.Fatal("foreign kind accepted")
	}
}

// sectionedCheckpoint is a checkpoint the daemon wrote in the sectioned
// format that predates the typed fleet.Checkpoint: cut after round 4 of
// the sectionedCheckpointRun schedule, with the dynamic tenant "dyn"
// delivered and the submission of "late" plus the kill of "alpha" still
// pending. Its inputs carry the retired per-input "seq" stamps and its
// core section the retired "inbox_next_seq" cursor.
const sectionedCheckpoint = "testdata/sectioned-checkpoint.json"

// sectionedCheckpointRun drives d through the 8 rounds of the fixture's
// schedule: "dyn" is submitted before round 2, "late" and the kill of
// "alpha" before round 4.
func sectionedCheckpointRun(t *testing.T, d *FleetDaemon) {
	t.Helper()
	for r := 0; r < 8; r++ {
		switch r {
		case 2:
			submitVia(t, d, SubmitRequest{Name: "dyn", Workload: "group", Profile: "low"})
		case 4:
			submitVia(t, d, SubmitRequest{Name: "late", Workload: "wordcount", Profile: "high", Priority: 2})
			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/fleet/jobs/alpha", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("kill alpha: status %d", rec.Code)
			}
		}
		if err := d.StepN(1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeSectionedCheckpoint: a checkpoint in the older sectioned format
// still resumes, and the replica finishes with a trace byte-identical to
// an uninterrupted run of the same schedule.
func TestResumeSectionedCheckpoint(t *testing.T) {
	ref, err := NewFleet(testFleetConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	sectionedCheckpointRun(t, ref)
	refTrace := traceOf(t, ref)

	f, err := os.Open(sectionedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replica, err := ResumeFleet(testFleetConfig(t, 8), f)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if replica.m.Round() != 4 {
		t.Fatalf("replica resumed at round %d, want 4", replica.m.Round())
	}
	if err := replica.StepN(8); err != nil {
		t.Fatal(err)
	}
	if got := traceOf(t, replica); got != refTrace {
		t.Fatalf("replica trace diverged from uninterrupted run:\nreplica:\n%s\nreference:\n%s", got, refTrace)
	}
}

// FuzzResumeCheckpoint: ResumeFleet on arbitrary bytes returns a replica
// or an error, never a panic.
func FuzzResumeCheckpoint(f *testing.F) {
	fixture, err := os.ReadFile(sectionedCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(fixture), len(fixture) * 3 / 4, len(fixture) / 2, len(fixture) / 4, 1, 0} {
		f.Add(fixture[:n])
	}
	cfg := testFleetConfig(f, 8)
	f.Fuzz(func(t *testing.T, b []byte) {
		c := cfg
		c.Fleet.Jobs = append(c.Fleet.Jobs[:0:0], cfg.Fleet.Jobs...)
		d, err := ResumeFleet(c, bytes.NewReader(b))
		if err == nil && (d == nil || d.m.Round() > 8) {
			t.Fatalf("resume accepted %q without a usable replica", b)
		}
	})
}
