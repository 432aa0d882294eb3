// Package daemon runs the Dragster fleet control plane as a long-lived
// process with the operational surface a Kubernetes operator is expected
// to have: a health endpoint, JSON fleet and per-job status, job
// submission and kill, checkpoints for failover, and Prometheus metrics.
// A single job is a one-tenant fleet. cmd/dragsterd is the thin main.
package daemon

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"dragster/internal/fleet"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

// FleetConfig assembles a FleetDaemon.
type FleetConfig struct {
	// Fleet is the multi-job control-plane configuration. Jobs listed in
	// it form the initial schedule; more can arrive over HTTP while the
	// daemon runs.
	Fleet fleet.Config
	// SlotWallInterval paces the round loop in wall-clock time (0 = run
	// rounds back-to-back).
	SlotWallInterval time.Duration
}

// FleetDaemon drives a fleet.Manager and serves its operational surface.
// The Manager is not safe for concurrent use, so every access — the
// round loop and each HTTP mutation — goes through one mutex.
type FleetDaemon struct {
	cfg FleetConfig

	mu      sync.Mutex
	m       *fleet.Manager
	lastErr error
	// submits records every accepted dynamic submission in arrival order.
	// Unlike fleet.JobSpec (which carries workload models and rate
	// functions), SubmitRequest is JSON-serializable, so the record rides
	// inside checkpoints and lets a replica rebuild the specs it must
	// replay.
	submits []SubmitRequest
}

// NewFleet validates the configuration and builds the fleet stack.
func NewFleet(cfg FleetConfig) (*FleetDaemon, error) {
	if cfg.SlotWallInterval < 0 {
		return nil, errors.New("daemon: negative wall interval")
	}
	m, err := fleet.New(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	return &FleetDaemon{cfg: cfg, m: m}, nil
}

// checkpointFile is the GET /fleet/checkpoint document: the fleet
// checkpoint with the daemon's submission record beside its sections.
type checkpointFile struct {
	Kind     string `json:"kind"`
	Version  int    `json:"version"`
	Sections struct {
		fleet.Sections
		Submits []SubmitRequest `json:"daemon_submits"`
	} `json:"sections"`
}

// WriteCheckpoint snapshots the fleet plus the daemon's dynamic
// submission record into one document (GET /fleet/checkpoint). The
// document is encoded under the lock and written after releasing it, so
// a slow reader never stalls the round loop or the other endpoints.
func (d *FleetDaemon) WriteCheckpoint(w io.Writer) error {
	b, err := d.checkpoint()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func (d *FleetDaemon) checkpoint() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ck := d.m.BuildCheckpoint()
	f := checkpointFile{Kind: ck.Kind, Version: ck.Version}
	f.Sections.Sections = ck.Sections
	f.Sections.Submits = d.submits
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResumeFleet builds a replica daemon from a checkpoint written by
// WriteCheckpoint: the recorded submissions are resolved back into job
// specs and the fleet manager is reconstructed by verified deterministic
// replay (see fleet.Resume). cfg must match the primary's.
func ResumeFleet(cfg FleetConfig, r io.Reader) (*FleetDaemon, error) {
	if cfg.SlotWallInterval < 0 {
		return nil, errors.New("daemon: negative wall interval")
	}
	var f checkpointFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("daemon: reading checkpoint: %w", err)
	}
	submits := f.Sections.Submits
	specs := make(map[string]fleet.JobSpec, len(submits))
	for i := range submits {
		spec, err := submits[i].ToSpec()
		if err != nil {
			return nil, fmt.Errorf("daemon: resolving recorded submission %q: %w", submits[i].Name, err)
		}
		specs[spec.Name] = spec
	}
	m, err := fleet.Resume(cfg.Fleet, &fleet.Checkpoint{Kind: f.Kind, Version: f.Version, Sections: f.Sections.Sections}, specs)
	if err != nil {
		return nil, err
	}
	return &FleetDaemon{cfg: cfg, m: m, submits: submits}, nil
}

// Run executes fleet rounds until the schedule finishes or ctx is
// cancelled, waiting SlotWallInterval between rounds but not after the
// last. It returns nil on normal completion.
func (d *FleetDaemon) Run(ctx context.Context) error {
	var ticker *time.Ticker
	if d.cfg.SlotWallInterval > 0 {
		ticker = time.NewTicker(d.cfg.SlotWallInterval)
		defer ticker.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		done, err := d.step()
		if err != nil || done {
			return err
		}
		if ticker != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-ticker.C:
			}
		}
	}
}

// StepN runs up to n fleet rounds synchronously (manual pacing and
// deterministic tests; Run is the wall-clock loop). Stops early without
// error when the schedule finishes.
func (d *FleetDaemon) StepN(n int) error {
	for i := 0; i < n; i++ {
		if done, err := d.step(); err != nil || done {
			return err
		}
	}
	return nil
}

// step runs one round unless the schedule has finished and reports
// whether it has finished afterwards.
func (d *FleetDaemon) step() (done bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m.Done() {
		return true, nil
	}
	if err := d.m.Step(); err != nil {
		d.lastErr = err
		return false, err
	}
	return d.m.Done(), nil
}

// Result exposes the accumulated fleet result.
func (d *FleetDaemon) Result() *fleet.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m.Result()
}

// FleetState is the JSON payload of GET /fleet/status.
type FleetState struct {
	Round          int     `json:"round"`
	Slots          int     `json:"slots"`
	Done           bool    `json:"done"`
	Arbitration    string  `json:"arbitration"`
	TaskBudget     int     `json:"task_budget"`
	RunningJobs    int     `json:"running_jobs"`
	QueueDepth     int     `json:"queue_depth"`
	BudgetOverruns int     `json:"budget_overruns"`
	ClusterCost    float64 `json:"cluster_cost_dollars"`
}

// FleetJobState is one tenant in GET /fleet/jobs. LastRound fields are
// zero until the job has run at least one round.
type FleetJobState struct {
	Name             string  `json:"name"`
	Workload         string  `json:"workload"`
	Status           string  `json:"status"`
	ArriveSlot       int     `json:"arrive_slot"`
	AdmitSlot        int     `json:"admit_slot"`
	DepartSlot       int     `json:"depart_slot"`
	Rounds           int     `json:"rounds"`
	Budget           int     `json:"budget"`
	Tasks            []int   `json:"tasks,omitempty"`
	DualPrice        float64 `json:"dual_price"`
	Steady           float64 `json:"steady_throughput_tuples_per_sec"`
	CostDollars      float64 `json:"cost_dollars"`
	WarmStartRecords int     `json:"warm_start_records"`
	Planned          bool    `json:"planned,omitempty"`
	PlanDigest       string  `json:"plan_digest,omitempty"`
}

// SubmitRequest is the JSON body of POST /fleet/jobs.
type SubmitRequest struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Profile selects the offered load, one of workload.Profile's names
	// at workload.DefaultPeriod ("" = "low"). Rates overrides it with
	// explicit per-source tuples/s when non-empty.
	Profile  string    `json:"profile,omitempty"`
	Rates    []float64 `json:"rates,omitempty"`
	Priority float64   `json:"priority,omitempty"`
	// DepartSlot schedules a departure (0 = runs until killed or the
	// fleet finishes).
	DepartSlot int `json:"depart_slot,omitempty"`
	// PlanOnAdmit asks admission to build a capacity plan first: the
	// grant and initial configuration come from the plan instead of the
	// cold floor (see internal/planner).
	PlanOnAdmit bool `json:"plan_on_admit,omitempty"`
	// TargetRates is the sustained per-source load the plan must cover;
	// empty = the profile's per-slot peak.
	TargetRates []float64 `json:"target_rates,omitempty"`
}

// ToSpec resolves the request into a fleet job spec (also used by
// cmd/dragsterd to parse its -fleet flag).
func (r *SubmitRequest) ToSpec() (fleet.JobSpec, error) {
	spec, err := workload.ByName(r.Workload)
	if err != nil {
		return fleet.JobSpec{}, err
	}
	var rates workload.RateFunc
	if len(r.Rates) == 0 {
		rates, err = workload.Profile(spec, cmp.Or(r.Profile, "low"), workload.DefaultPeriod)
	} else {
		// Explicit rates must fit the workload's sources like JobSpec's
		// TargetRates; a bad vector would otherwise fail every later round.
		if n := spec.Graph.NumSources(); len(r.Rates) != n {
			return fleet.JobSpec{}, fmt.Errorf("got %d rates, want %d (one per source)", len(r.Rates), n)
		}
		for i, v := range r.Rates {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fleet.JobSpec{}, fmt.Errorf("rate %d = %v invalid", i, v)
			}
		}
		rates, err = workload.Constant(r.Rates)
	}
	if err != nil {
		return fleet.JobSpec{}, err
	}
	return fleet.JobSpec{
		Name:        r.Name,
		Workload:    spec,
		Rates:       rates,
		Priority:    r.Priority,
		DepartSlot:  r.DepartSlot,
		PlanOnAdmit: r.PlanOnAdmit,
		TargetRates: r.TargetRates,
	}, nil
}

func (d *FleetDaemon) state() FleetState {
	res := d.m.Result()
	running := 0
	for _, j := range res.Jobs {
		if j.Status == fleet.StatusRunning {
			running++
		}
	}
	return FleetState{
		Round:          d.m.Round(),
		Slots:          res.Slots,
		Done:           d.m.Done(),
		Arbitration:    res.Arbitration.String(),
		TaskBudget:     res.TotalTaskBudget,
		RunningJobs:    running,
		QueueDepth:     d.m.QueueDepth(),
		BudgetOverruns: res.BudgetOverruns,
		ClusterCost:    res.ClusterCost,
	}
}

func jobStateOf(jr *fleet.JobResult) FleetJobState {
	out := FleetJobState{
		Name:             jr.Name,
		Workload:         jr.Workload,
		Status:           jr.Status.String(),
		ArriveSlot:       jr.ArriveSlot,
		AdmitSlot:        jr.AdmitSlot,
		DepartSlot:       jr.DepartSlot,
		Rounds:           len(jr.Rounds),
		CostDollars:      jr.Cost,
		WarmStartRecords: jr.WarmStartRecords,
		Planned:          jr.Planned,
		PlanDigest:       jr.PlanDigest,
	}
	if n := len(jr.Rounds); n > 0 {
		last := jr.Rounds[n-1]
		out.Budget = last.Budget
		out.Tasks = append([]int(nil), last.Tasks...)
		out.DualPrice = last.DualPrice
		out.Steady = last.Steady
	}
	return out
}

// Handler returns the fleet HTTP surface:
//
//	GET    /healthz            → 200 "ok" (503 after a loop error)
//	GET    /fleet/status       → FleetState as JSON
//	GET    /fleet/jobs         → []FleetJobState (submission order)
//	POST   /fleet/jobs         → submit a job (SubmitRequest body)
//	GET    /fleet/jobs/{name}  → one FleetJobState
//	GET    /fleet/jobs/{name}/plan → the job's capacity plan (404 when
//	       the tenant was admitted on the cold floor or is unknown)
//	DELETE /fleet/jobs/{name}  → mark the job for departure next round
//	GET    /fleet/checkpoint   → replayable checkpoint (see ResumeFleet)
//	GET    /fleet/trace        → the event trace, one line per event
//	GET    /metrics            → fleet telemetry registry, Prometheus text
func (d *FleetDaemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		err := d.lastErr
		d.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /fleet/status", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		s := d.state()
		d.mu.Unlock()
		writeJSON(w, s)
	})
	mux.HandleFunc("GET /fleet/jobs", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		jobs := d.m.Jobs()
		d.mu.Unlock()
		out := make([]FleetJobState, len(jobs))
		for i := range jobs {
			out[i] = jobStateOf(&jobs[i])
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("POST /fleet/jobs", func(w http.ResponseWriter, r *http.Request) {
		req, status, err := decodeSubmit(w, r)
		if err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		spec, err := req.ToSpec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d.mu.Lock()
		err = d.m.Submit(spec)
		if err == nil {
			d.submits = append(d.submits, req)
		}
		d.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "job %q submitted\n", spec.Name)
	})
	mux.HandleFunc("GET /fleet/jobs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		d.mu.Lock()
		jobs := d.m.Jobs()
		d.mu.Unlock()
		for i := range jobs {
			if jobs[i].Name == name {
				writeJSON(w, jobStateOf(&jobs[i]))
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown job %q", name), http.StatusNotFound)
	})
	mux.HandleFunc("GET /fleet/jobs/{name}/plan", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		d.mu.Lock()
		p := d.m.PlanFor(name)
		d.mu.Unlock()
		if p == nil {
			http.Error(w, fmt.Sprintf("no capacity plan for job %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, p)
	})
	mux.HandleFunc("DELETE /fleet/jobs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		d.mu.Lock()
		err := d.m.Kill(name)
		d.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "job %q marked for departure\n", name)
	})
	mux.HandleFunc("GET /fleet/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := d.WriteCheckpoint(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	})
	mux.HandleFunc("GET /fleet/trace", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		text := d.m.TraceText()
		d.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, text)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		reg := d.m.Metrics()
		d.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := telemetry.WritePrometheus(w, reg); err != nil {
			return // headers already sent
		}
	})
	return mux
}

// maxSubmitBodyBytes caps a POST /fleet/jobs body. A SubmitRequest is a
// few hundred bytes; the cap keeps a hostile client from making the
// daemon buffer an arbitrarily large body.
const maxSubmitBodyBytes = 1 << 20

// decodeSubmit reads a POST /fleet/jobs body strictly: exactly one JSON
// object with no unknown fields (a misspelled field would otherwise be
// dropped silently and the job run on defaults). On failure it returns
// the status to answer with: 413 past maxSubmitBodyBytes, else 400.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, int, error) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); errors.Is(err, io.EOF) {
			return req, 0, nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxSubmitBodyBytes)
	}
	return req, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return // headers already sent
	}
}
