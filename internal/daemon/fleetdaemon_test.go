package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
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
	if _, err := NewFleet(testFleetConfig(t, 0)); err == nil {
		t.Error("zero slots accepted")
	}
}

// oneTenantConfig is the single-job daemon: one WordCount tenant at its
// high load, granted the whole budget.
func oneTenantConfig(t testing.TB, slots int) FleetConfig {
	t.Helper()
	req := SubmitRequest{Name: "wordcount", Workload: "wordcount", Profile: "high"}
	spec, err := req.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	return FleetConfig{
		Fleet: fleet.Config{
			Jobs:            []fleet.JobSpec{spec},
			Slots:           slots,
			SlotSeconds:     30,
			Seed:            2,
			TotalTaskBudget: 20,
			Arbitration:     fleet.EqualSplit,
		},
	}
}

// TestNewValidation: the single-job daemon refuses a lone job without a
// rate function, a negative wall interval and a zero-slot schedule.
func TestNewValidation(t *testing.T) {
	cfg := oneTenantConfig(t, 3)
	cfg.Fleet.Jobs[0].Rates = nil
	if _, err := NewFleet(cfg); err == nil {
		t.Error("job without a rate function accepted")
	}
	cfg = oneTenantConfig(t, 3)
	cfg.SlotWallInterval = -time.Second
	if _, err := NewFleet(cfg); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := NewFleet(oneTenantConfig(t, 0)); err == nil {
		t.Error("zero slots accepted")
	}
}

// TestRunToCompletionAndEndpoints runs the single-job daemon to the end
// and reads the job's state from /fleet/jobs/{name} and /metrics.
func TestRunToCompletionAndEndpoints(t *testing.T) {
	d, err := NewFleet(oneTenantConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var st FleetState
	getJSON(t, srv.URL+"/fleet/status", &st)
	if !st.Done || st.Round != 5 || st.RunningJobs != 1 {
		t.Errorf("fleet status: %+v", st)
	}
	var j FleetJobState
	getJSON(t, srv.URL+"/fleet/jobs/wordcount", &j)
	if j.Workload != "wordcount" || j.Status != "running" || j.Rounds != 5 {
		t.Errorf("job state: %+v", j)
	}
	if j.Budget != 20 || len(j.Tasks) != 2 || j.Steady <= 0 || j.CostDollars <= 0 {
		t.Errorf("the lone tenant's grant and accounting: %+v", j)
	}
	text := getText(t, srv.URL+"/metrics")
	for _, want := range []string{
		"fleet_rounds 5",
		`fleet_budget_share{job="wordcount"} 20`,
		"# TYPE fleet_running_jobs gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if got := d.Result().Jobs[0].Rounds; len(got) != 5 {
		t.Errorf("result holds %d rounds, want 5", len(got))
	}
}

// TestRoutesAcceptOnlyGET: the read-only routes answer any other method
// with 405 Method Not Allowed.
func TestRoutesAcceptOnlyGET(t *testing.T) {
	d, err := NewFleet(oneTenantConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, path := range []string{"/healthz", "/fleet/status", "/fleet/trace", "/fleet/checkpoint", "/metrics"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		getText(t, srv.URL+path)
	}
}

func TestWallPacing(t *testing.T) {
	cfg := oneTenantConfig(t, 3)
	cfg.SlotWallInterval = 30 * time.Millisecond
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 3 rounds with 2 inter-round waits ≥ 60 ms.
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Errorf("pacing ignored: run took %v", elapsed)
	}
}

// TestRunSkipsWaitAfterLastRound: Run returns as soon as the final round
// commits instead of sleeping one more interval.
func TestRunSkipsWaitAfterLastRound(t *testing.T) {
	cfg := oneTenantConfig(t, 1)
	cfg.SlotWallInterval = time.Minute
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run waited out the wall interval after its last round")
	}
}

// blockingWriter is a ResponseWriter whose first Write signals entered
// and then blocks until release is closed.
type blockingWriter struct {
	header  http.Header
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(b), nil
}

// TestCheckpointReaderDoesNotStallRounds: a client stuck reading
// GET /fleet/checkpoint must not hold the lock the round loop needs.
func TestCheckpointReaderDoesNotStallRounds(t *testing.T) {
	d, err := NewFleet(oneTenantConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := &blockingWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/fleet/checkpoint", nil))
		close(served)
	}()
	defer func() {
		close(w.release)
		<-served
	}()
	select {
	case <-w.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint handler never wrote")
	}
	stepped := make(chan error, 1)
	go func() { stepped <- d.StepN(1) }()
	select {
	case err := <-stepped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StepN(1) blocked behind a stalled checkpoint reader")
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

// TestFleetMetricsDropKilledJob: a killed tenant's labelled series leave
// /metrics, so the per-job budget shares that remain sum to
// fleet_budget_allocated instead of counting a departed job's last grant.
func TestFleetMetricsDropKilledJob(t *testing.T) {
	d, err := NewFleet(testFleetConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	if err := d.StepN(2); err != nil {
		t.Fatal(err)
	}
	if text := getText(t, srv.URL+"/metrics"); !strings.Contains(text, `fleet_budget_share{job="alpha"}`) {
		t.Fatalf("running alpha has no budget share before the kill:\n%s", text)
	}
	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/fleet/jobs/alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill = %d", resp.StatusCode)
	}
	if err := d.StepN(2); err != nil {
		t.Fatal(err)
	}
	text := getText(t, srv.URL+"/metrics")
	var shares, allocated float64
	haveAllocated := false
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `job="alpha"`) {
			t.Errorf("killed job still on /metrics: %s", line)
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(name, "fleet_budget_share{"):
			shares += v
		case name == "fleet_budget_allocated":
			allocated, haveAllocated = v, true
		}
	}
	if !haveAllocated || allocated <= 0 {
		t.Fatalf("fleet_budget_allocated missing or zero:\n%s", text)
	}
	if shares != allocated {
		t.Errorf("per-job budget shares sum to %v, fleet_budget_allocated is %v:\n%s", shares, allocated, text)
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

// TestRunHonoursContextCancel: cancelling the single-job daemon after a
// round has completed stops Run with an error and leaves the schedule
// unfinished.
func TestRunHonoursContextCancel(t *testing.T) {
	cfg := oneTenantConfig(t, 1000)
	cfg.SlotWallInterval = time.Millisecond
	d, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() FleetState {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.state()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	// Let at least one round complete, then cancel.
	deadline := time.After(5 * time.Second)
	for snapshot().Round == 0 {
		select {
		case <-deadline:
			cancel()
			t.Fatal("no round completed in time")
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
	if snapshot().Done {
		t.Error("cancelled run reported Done")
	}
}

func getText(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
