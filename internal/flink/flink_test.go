package flink

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/dag"
	"dragster/internal/streamsim"
)

func chainGraph(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, mp, sh, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(2), dag.Selectivity(1)}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newEngine(t testing.TB, g *dag.Graph, perTask float64) *streamsim.Engine {
	t.Helper()
	lin, err := streamsim.NewLinearCurve(perTask)
	if err != nil {
		t.Fatal(err)
	}
	e, err := streamsim.New(streamsim.Config{Graph: g, Models: []streamsim.CapacityModel{lin, lin}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newSessionWithJob(t testing.TB, nodes int, initial []int) (*SessionCluster, *Job) {
	t.Helper()
	k8s := cluster.New()
	if err := k8s.AddNodes("n", nodes, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(k8s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t)
	j, err := s.SubmitJob("wordcount", g, newEngine(t, g, 150), initial)
	if err != nil {
		t.Fatal(err)
	}
	return s, j
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, DefaultOptions()); err == nil {
		t.Error("nil cluster accepted")
	}
	k8s := cluster.New() // no nodes → JobManager unschedulable
	if _, err := NewSession(k8s, DefaultOptions()); err == nil {
		t.Error("session without schedulable JobManager accepted")
	}
	k8s2 := cluster.New()
	if err := k8s2.AddNode("n", cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.RescalePauseSeconds = -1
	if _, err := NewSession(k8s2, bad); err == nil {
		t.Error("negative pause accepted")
	}
}

func TestSubmitJobCreatesDeployments(t *testing.T) {
	s, j := newSessionWithJob(t, 4, []int{2, 3})
	if got := j.EffectiveParallelism(); got[0] != 2 || got[1] != 3 {
		t.Errorf("EffectiveParallelism = %v", got)
	}
	deps := s.Cluster().Deployments()
	want := map[string]bool{"flink-jobmanager": true, "tm-wordcount-map": true, "tm-wordcount-shuffle": true}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected deployment %q", d)
		}
		delete(want, d)
	}
	if len(want) != 0 {
		t.Errorf("missing deployments: %v", want)
	}
	// A duplicate job name is rejected; a distinct name is hosted alongside.
	if _, err := s.SubmitJob("wordcount", j.Graph(), newEngine(t, j.Graph(), 10), []int{1, 1}); err == nil {
		t.Error("duplicate job name accepted")
	}
	j2, err := s.SubmitJob("tenant2", j.Graph(), newEngine(t, j.Graph(), 10), []int{1, 1})
	if err != nil {
		t.Fatalf("second job rejected: %v", err)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("Jobs() = %d jobs, want 2", got)
	}
	if _, ok := s.Job("tenant2"); !ok {
		t.Error("Job(tenant2) not found")
	}
	// Cancelling deletes the tenant's TaskManager deployments only.
	if err := s.CancelJob("tenant2"); err != nil {
		t.Fatal(err)
	}
	for _, dep := range s.Cluster().Deployments() {
		if strings.HasPrefix(dep, "tm-tenant2-") {
			t.Errorf("deployment %q survived CancelJob", dep)
		}
	}
	if _, ok := s.Job("tenant2"); ok {
		t.Error("cancelled job still listed")
	}
	_ = j2
	if err := s.CancelJob("tenant2"); err == nil {
		t.Error("double cancel accepted")
	}
}

func TestSubmitJobValidation(t *testing.T) {
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 2, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(k8s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t)
	if _, err := s.SubmitJob("j", nil, newEngine(t, g, 10), []int{1, 1}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := s.SubmitJob("j", g, newEngine(t, g, 10), []int{1}); err == nil {
		t.Error("wrong parallelism length accepted")
	}
	if _, err := s.SubmitJob("j", g, newEngine(t, g, 10), []int{0, 1}); err == nil {
		t.Error("zero parallelism accepted")
	}
}

func TestRunSlotSteadyState(t *testing.T) {
	_, j := newSessionWithJob(t, 8, []int{2, 3})
	rates := func(int) []float64 { return []float64{100} }
	rep, err := j.RunSlot(60, rates)
	if err != nil {
		t.Fatal(err)
	}
	// map: 2 tasks × 150 = 300 capacity ≥ demand 200; steady state 200/s.
	if math.Abs(rep.Throughput-200) > 5 {
		t.Errorf("Throughput = %v, want ≈200", rep.Throughput)
	}
	if rep.PausedSeconds != 0 {
		t.Errorf("PausedSeconds = %d", rep.PausedSeconds)
	}
	if rep.Vertices[0].Name != "map" || rep.Vertices[0].RunningTasks != 2 {
		t.Errorf("vertex 0 = %+v", rep.Vertices[0])
	}
	if rep.Vertices[0].InRate < 99 || rep.Vertices[0].OutRate < 199 {
		t.Errorf("map rates = %+v", rep.Vertices[0])
	}
	// Eq. 8 estimate: OutRate/Util ≈ true capacity 300.
	est := rep.Vertices[0].OutRate / rep.Vertices[0].Util
	if math.Abs(est-300) > 10 {
		t.Errorf("capacity estimate = %v, want ≈300", est)
	}
	if rep.CostSoFar <= 0 {
		t.Error("no cost accrued")
	}
	if j.LastReport() != rep || j.Slot() != 1 {
		t.Error("report bookkeeping wrong")
	}
}

func TestRescaleChargesPause(t *testing.T) {
	_, j := newSessionWithJob(t, 8, []int{1, 1})
	rates := func(int) []float64 { return []float64{100} }
	if _, err := j.RunSlot(30, rates); err != nil {
		t.Fatal(err)
	}
	if err := j.Rescale([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	rep, err := j.RunSlot(60, rates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedSeconds != 30 {
		t.Errorf("PausedSeconds = %d, want 30", rep.PausedSeconds)
	}
	if got := j.EffectiveParallelism(); got[0] != 2 || got[1] != 2 {
		t.Errorf("parallelism after rescale = %v", got)
	}
	// No-op rescale must not pause.
	if err := j.Rescale([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	rep, err = j.RunSlot(30, rates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedSeconds != 0 {
		t.Errorf("no-op rescale paused %d s", rep.PausedSeconds)
	}
}

// TestStormPresetRebalancePause pins the Storm preset: the Flink setup
// with a 10 s rebalance stall in place of the 30 s savepoint pause, on
// homogeneous 1-CPU workers.
func TestStormPresetRebalancePause(t *testing.T) {
	want := DefaultOptions()
	want.RescalePauseSeconds = 10
	if got := StormOptions(); got != want {
		t.Fatalf("StormOptions() = %+v, want %+v", got, want)
	}
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 8, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(k8s, StormOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t)
	j, err := s.SubmitJob("wordcount", g, newEngine(t, g, 150), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rates := func(int) []float64 { return []float64{100} }
	if err := j.Rescale([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	rep, err := j.RunSlot(60, rates)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PausedSeconds != 10 {
		t.Errorf("PausedSeconds = %d, want 10", rep.PausedSeconds)
	}
	if got := j.EffectiveCPUMilli(); got[0] != 1000 || got[1] != 1000 {
		t.Errorf("worker CPUs = %v, want homogeneous 1000m", got)
	}
}

func TestRescaleValidation(t *testing.T) {
	_, j := newSessionWithJob(t, 4, []int{1, 1})
	if err := j.Rescale([]int{1}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := j.Rescale([]int{0, 1}); err == nil {
		t.Error("zero parallelism accepted")
	}
}

func TestBudgetLimitsEffectiveParallelism(t *testing.T) {
	// 2 nodes × 4 cores = 8 cores; JobManager takes 1, leaving 7 TM slots.
	_, j := newSessionWithJob(t, 2, []int{1, 1})
	if err := j.Rescale([]int{6, 6}); err != nil {
		t.Fatal(err)
	}
	eff := j.EffectiveParallelism()
	if eff[0]+eff[1] != 7 {
		t.Errorf("effective tasks = %v, want total 7 (cluster capacity)", eff)
	}
	// The engine must run with the effective counts, not the desired ones.
	rep, err := j.RunSlot(60, func(int) []float64 { return []float64{100} })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vertices[0].RunningTasks+rep.Vertices[1].RunningTasks != 7 {
		t.Errorf("vertex running tasks = %+v", rep.Vertices)
	}
}

func TestRunSlotValidation(t *testing.T) {
	_, j := newSessionWithJob(t, 4, []int{1, 1})
	if _, err := j.RunSlot(0, func(int) []float64 { return []float64{1} }); err == nil {
		t.Error("zero-length slot accepted")
	}
	if _, err := j.RunSlot(5, func(int) []float64 { return []float64{1, 2} }); err == nil {
		t.Error("bad rate vector accepted")
	}
}

func TestMetricsServerSeesPodUsage(t *testing.T) {
	s, j := newSessionWithJob(t, 8, []int{2, 2})
	if _, err := j.RunSlot(30, func(int) []float64 { return []float64{100} }); err != nil {
		t.Fatal(err)
	}
	util, ok := s.Cluster().DeploymentUtilization("tm-wordcount-map")
	if !ok {
		t.Fatal("no metrics for map deployment")
	}
	if util <= 0 || util > 1 {
		t.Errorf("map utilization = %v", util)
	}
}

func TestRESTHandler(t *testing.T) {
	s, j := newSessionWithJob(t, 8, []int{2, 3})
	h := NewRESTHandler(s)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Before any slot: 503 on the job endpoint, job listed.
	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs["jobs"]) != 1 || jobs["jobs"][0] != "wordcount" {
		t.Errorf("jobs = %v", jobs)
	}
	resp, err = http.Get(srv.URL + "/jobs/wordcount")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pre-slot status = %d, want 503", resp.StatusCode)
	}

	if _, err := j.RunSlot(30, func(int) []float64 { return []float64{100} }); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/jobs/wordcount")
	if err != nil {
		t.Fatal(err)
	}
	var rep SlotReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Job != "wordcount" || len(rep.Vertices) != 2 {
		t.Errorf("report = %+v", rep)
	}

	resp, err = http.Get(srv.URL + "/jobs/wordcount/vertices")
	if err != nil {
		t.Fatal(err)
	}
	var verts []VertexStats
	if err := json.NewDecoder(resp.Body).Decode(&verts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(verts) != 2 || verts[0].Name != "map" {
		t.Errorf("vertices = %+v", verts)
	}

	// Unknown paths and methods.
	resp, _ = http.Get(srv.URL + "/jobs/nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/other")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/jobs/wordcount/vertices/extra")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deep path status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/jobs", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}
