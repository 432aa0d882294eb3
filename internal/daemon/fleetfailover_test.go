package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
