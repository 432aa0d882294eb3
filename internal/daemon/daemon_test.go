package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dragster/internal/experiment"
	"dragster/internal/workload"
)

func testConfig(t testing.TB, slots int) Config {
	t.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Scenario: experiment.Scenario{
			Spec:        spec,
			Rates:       rates,
			Slots:       slots,
			SlotSeconds: 30,
			Seed:        2,
		},
		Factory: experiment.DragsterSaddle(),
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Factory = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil factory accepted")
	}
	cfg = testConfig(t, 3)
	cfg.SlotWallInterval = -time.Second
	if _, err := New(cfg); err == nil {
		t.Error("negative interval accepted")
	}
	cfg = testConfig(t, 0)
	if _, err := New(cfg); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestRunToCompletionAndEndpoints(t *testing.T) {
	d, err := New(testConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	if !s.Done || s.SlotsCompleted != 5 {
		t.Fatalf("state after run: %+v", s)
	}
	if s.Policy != "dragster-saddle-point" || s.Workload != "wordcount" {
		t.Errorf("labels: %s / %s", s.Policy, s.Workload)
	}
	if s.ProcessedTotal <= 0 || s.CostDollars <= 0 {
		t.Errorf("missing accounting: %+v", s)
	}
	if len(s.Tasks) != 2 || len(s.TargetCapacity) != 2 {
		t.Errorf("per-operator state: %+v", s)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var got State
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.SlotsCompleted != 5 || got.Workload != "wordcount" {
		t.Errorf("status payload: %+v", got)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"dragster_slots_completed 5",
		"dragster_processed_tuples_total",
		`dragster_operator_tasks{operator="map"}`,
		`dragster_target_capacity_tuples_per_second{operator="shuffle"}`,
		"# TYPE dragster_cost_dollars_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	// HELP lines must not repeat per labelled series.
	if strings.Count(text, "# HELP dragster_operator_tasks") != 1 {
		t.Error("duplicated HELP block for labelled metric")
	}

	// The full result is available for post-hoc analysis.
	if got := d.runner.Result(); len(got.Trace) != 5 {
		t.Errorf("result trace length %d", len(got.Trace))
	}
}

// TestRoutesAcceptOnlyGET: the single-job surface is read-only, like the
// fleet daemon's, so any other method gets 405 Method Not Allowed.
func TestRoutesAcceptOnlyGET(t *testing.T) {
	d, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, path := range []string{"/healthz", "/status", "/metrics"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		resp, err = http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestRunHonoursContextCancel(t *testing.T) {
	d, err := New(testConfig(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	// Let at least one slot complete, then cancel.
	deadline := time.After(5 * time.Second)
	for d.Snapshot().SlotsCompleted == 0 {
		select {
		case <-deadline:
			t.Fatal("no slot completed in time")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled Run returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
	if d.Snapshot().Done {
		t.Error("cancelled run reported Done")
	}
}

func TestWallPacing(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.SlotWallInterval = 30 * time.Millisecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 3 slots with 2 inter-slot waits ≥ 60 ms.
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Errorf("pacing ignored: run took %v", elapsed)
	}
}
