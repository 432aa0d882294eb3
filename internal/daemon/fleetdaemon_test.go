package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dragster/internal/chaos"
	"dragster/internal/fleet"
	"dragster/internal/workload"
)

func testFleetConfig(t testing.TB, slots int) FleetConfig {
	t.Helper()
	wc, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.Group()
	if err != nil {
		t.Fatal(err)
	}
	wcRates, err := workload.Constant(wc.LowRates)
	if err != nil {
		t.Fatal(err)
	}
	gRates, err := workload.Constant(g.LowRates)
	if err != nil {
		t.Fatal(err)
	}
	return FleetConfig{
		Fleet: fleet.Config{
			Jobs: []fleet.JobSpec{
				{Name: "alpha", Workload: wc, Rates: wcRates},
				{Name: "beta", Workload: g, Rates: gRates},
			},
			Slots:           slots,
			SlotSeconds:     60,
			Seed:            11,
			TotalTaskBudget: 12,
		},
	}
}

func TestNewFleetValidation(t *testing.T) {
	cfg := testFleetConfig(t, 3)
	cfg.SlotWallInterval = -time.Second
	if _, err := NewFleet(cfg); err == nil {
		t.Error("negative wall interval accepted")
	}
	cfg = testFleetConfig(t, 3)
	cfg.Fleet.TotalTaskBudget = 0
	if _, err := NewFleet(cfg); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestFleetDaemonEndpoints(t *testing.T) {
	d, err := NewFleet(testFleetConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
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

	var st FleetState
	getJSON(t, srv.URL+"/fleet/status", &st)
	if !st.Done || st.Round != 4 || st.TaskBudget != 12 {
		t.Errorf("fleet status: %+v", st)
	}
	if st.Arbitration != "dual-price" {
		t.Errorf("arbitration label %q", st.Arbitration)
	}
	if st.BudgetOverruns != 0 {
		t.Errorf("budget overruns %d", st.BudgetOverruns)
	}
	if st.ClusterCost <= 0 {
		t.Errorf("cluster cost %v", st.ClusterCost)
	}

	var jobs []FleetJobState
	getJSON(t, srv.URL+"/fleet/jobs", &jobs)
	if len(jobs) != 2 || jobs[0].Name != "alpha" || jobs[1].Name != "beta" {
		t.Fatalf("jobs listing: %+v", jobs)
	}
	for _, j := range jobs {
		if j.Status != "running" || j.Rounds != 4 || j.Budget <= 0 || j.CostDollars <= 0 {
			t.Errorf("job state: %+v", j)
		}
	}

	var beta FleetJobState
	getJSON(t, srv.URL+"/fleet/jobs/beta", &beta)
	if beta.Workload != "group" || len(beta.Tasks) != 1 {
		t.Errorf("beta detail: %+v", beta)
	}
	resp, err = http.Get(srv.URL + "/fleet/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("metrics content type %q", got)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE fleet_rounds counter",
		"fleet_rounds 4",
		"# TYPE fleet_budget_total gauge",
		"fleet_budget_total 12",
		`fleet_budget_share{job="alpha"}`,
		`fleet_dual_price{job="beta"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestFleetDaemonSubmitAndKill(t *testing.T) {
	d, err := NewFleet(testFleetConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Submit a third tenant and kill an initial one before the loop
	// starts: the manager picks both up on its first round.
	req := SubmitRequest{Name: "gamma", Workload: "group", Profile: "low"}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/fleet/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	// Duplicate name conflicts.
	resp, err = http.Post(srv.URL+"/fleet/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate submit = %d", resp.StatusCode)
	}
	// Unknown workload is a bad request.
	bad, err := json.Marshal(SubmitRequest{Name: "delta", Workload: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/fleet/jobs", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload submit = %d", resp.StatusCode)
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/fleet/jobs/alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("kill = %d", resp.StatusCode)
	}
	del, err = http.NewRequest(http.MethodDelete, srv.URL+"/fleet/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("kill unknown = %d", resp.StatusCode)
	}

	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var jobs []FleetJobState
	getJSON(t, srv.URL+"/fleet/jobs", &jobs)
	byName := map[string]FleetJobState{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	if got := byName["alpha"].Status; got != "departed" {
		t.Errorf("killed job status %q", got)
	}
	if got := byName["gamma"]; got.Status != "running" || got.Rounds != 6 {
		t.Errorf("submitted job: %+v", got)
	}
}

// TestFleetSubmitRejectsBadRates pins that a submitted rate vector that
// does not fit the workload is refused up front: accepted, it would fail
// the next round for every tenant.
func TestFleetSubmitRejectsBadRates(t *testing.T) {
	d, err := NewFleet(testFleetConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		name  string
		rates []float64
		want  int
	}{
		{"wrong-length", []float64{1, 2, 3}, http.StatusBadRequest},
		{"negative", []float64{-5000}, http.StatusBadRequest},
		{"valid", []float64{5000}, http.StatusAccepted},
	} {
		buf, err := json.Marshal(SubmitRequest{Name: tc.name, Workload: "wordcount", Rates: tc.rates})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/fleet/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: submit = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if err := d.StepN(4); err != nil {
		t.Fatalf("fleet stopped stepping: %v", err)
	}
	var jobs []FleetJobState
	getJSON(t, srv.URL+"/fleet/jobs", &jobs)
	if len(jobs) != 3 || jobs[2].Name != "valid" || jobs[2].Status != "running" {
		t.Errorf("jobs after bad submissions: %+v", jobs)
	}
}

// TestFleetMetricsIncludeChaosCounters pins the single registry: the
// chaos engine counts its faults in the registry GET /metrics serves.
func TestFleetMetricsIncludeChaosCounters(t *testing.T) {
	cfg := testFleetConfig(t, 4)
	cfg.Fleet.Chaos = chaos.NewSpec("node-loss").CrashLastNode(1).HealNode(2)
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"chaos_node_crashes 1", "chaos_node_heals 1", "fleet_rounds 4"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestFleetDaemonHonoursContextCancel(t *testing.T) {
	cfg := testFleetConfig(t, 1000)
	cfg.SlotWallInterval = time.Millisecond
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled Run returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestFleetDaemonPlanEndpoint(t *testing.T) {
	cfg := testFleetConfig(t, 4)
	cfg.Fleet.TotalTaskBudget = 20
	cfg.Fleet.Jobs[0].PlanOnAdmit = true
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/fleet/jobs/alpha/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("planned tenant plan: status %d", resp.StatusCode)
	}
	var plan struct {
		Workload   string  `json:"workload"`
		Tasks      []int   `json:"tasks"`
		TotalTasks int     `json:"total_tasks"`
		ProbeCost  float64 `json:"probe_cost"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatalf("decoding plan: %v", err)
	}
	if plan.Workload != "wordcount" || len(plan.Tasks) == 0 || plan.TotalTasks == 0 || plan.ProbeCost <= 0 {
		t.Errorf("implausible plan payload: %+v", plan)
	}

	// Cold-floor and unknown tenants both 404.
	for _, name := range []string{"beta", "nosuch"} {
		resp, err := http.Get(srv.URL + "/fleet/jobs/" + name + "/plan")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s plan: status %d, want 404", name, resp.StatusCode)
		}
	}

	// The job state surfaces the plan identity.
	resp, err = http.Get(srv.URL + "/fleet/jobs/alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js FleetJobState
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if !js.Planned || js.PlanDigest == "" {
		t.Errorf("planned tenant state missing plan identity: %+v", js)
	}
}

func TestSubmitRequestPlanPassthrough(t *testing.T) {
	req := SubmitRequest{
		Name:        "p",
		Workload:    "wordcount",
		PlanOnAdmit: true,
		TargetRates: []float64{12000},
	}
	spec, err := req.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !spec.PlanOnAdmit {
		t.Error("PlanOnAdmit not passed through")
	}
	if len(spec.TargetRates) != 1 || spec.TargetRates[0] != 12000 {
		t.Errorf("TargetRates = %v, want [12000]", spec.TargetRates)
	}
}
