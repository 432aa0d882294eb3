// Package daemon wraps the experiment Runner into a long-running
// controller process with the operational surface a Kubernetes operator
// is expected to have: a health endpoint, a JSON status endpoint, and a
// Prometheus-format metrics endpoint. cmd/dragsterd is the thin main.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dragster/internal/experiment"
)

// Config assembles a Daemon.
type Config struct {
	// Scenario and Factory define what to run (see experiment.Scenario).
	Scenario experiment.Scenario
	Factory  experiment.PolicyFactory
	// SlotWallInterval paces the loop in wall-clock time (0 = run slots
	// back-to-back; a real deployment would set this to the slot length).
	SlotWallInterval time.Duration
}

// State is the JSON payload of /status.
type State struct {
	Policy          string    `json:"policy"`
	Workload        string    `json:"workload"`
	SlotsCompleted  int       `json:"slots_completed"`
	SlotsTotal      int       `json:"slots_total"`
	Done            bool      `json:"done"`
	Tasks           []int     `json:"tasks"`
	TargetCapacity  []float64 `json:"target_capacity,omitempty"`
	Throughput      float64   `json:"throughput_tuples_per_sec"`
	SteadyThpt      float64   `json:"steady_throughput_tuples_per_sec"`
	ProcessedTotal  float64   `json:"processed_tuples_total"`
	CostDollars     float64   `json:"cost_dollars_total"`
	AvgLatencySec   float64   `json:"avg_latency_sec"`
	PausedSeconds   int       `json:"paused_seconds_last_slot"`
	OperatorNames   []string  `json:"operator_names"`
	LastUpdatedUnix int64     `json:"last_updated_unix"`
}

// Daemon drives the runner and serves its state.
type Daemon struct {
	cfg    Config
	runner *experiment.Runner

	mu        sync.RWMutex
	state     State
	processed float64
	lastErr   error
}

// New validates the configuration and builds the stack.
func New(cfg Config) (*Daemon, error) {
	if cfg.Factory == nil {
		return nil, errors.New("daemon: nil policy factory")
	}
	if cfg.SlotWallInterval < 0 {
		return nil, errors.New("daemon: negative wall interval")
	}
	r, err := experiment.NewRunner(cfg.Scenario, cfg.Factory)
	if err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, runner: r}
	names := make([]string, cfg.Scenario.Spec.Graph.NumOperators())
	for i := range names {
		names[i] = cfg.Scenario.Spec.Graph.OperatorName(i)
	}
	d.state = State{
		Policy:        r.PolicyName(),
		Workload:      cfg.Scenario.Spec.Name,
		SlotsTotal:    cfg.Scenario.Slots,
		OperatorNames: names,
	}
	return d, nil
}

// Run executes slots until the scenario finishes or ctx is cancelled.
// It returns nil on normal completion.
func (d *Daemon) Run(ctx context.Context) error {
	var ticker *time.Ticker
	if d.cfg.SlotWallInterval > 0 {
		ticker = time.NewTicker(d.cfg.SlotWallInterval)
		defer ticker.Stop()
	}
	for !d.runner.Done() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		tr, err := d.runner.Step()
		if err != nil {
			d.mu.Lock()
			d.lastErr = err
			d.mu.Unlock()
			return err
		}
		d.mu.Lock()
		d.processed += tr.Processed
		d.state.SlotsCompleted = tr.Slot + 1
		d.state.Done = d.runner.Done()
		d.state.Tasks = append([]int(nil), tr.Tasks...)
		d.state.TargetCapacity = append([]float64(nil), tr.TargetY...)
		d.state.Throughput = tr.MeasuredThroughput
		d.state.SteadyThpt = tr.SteadyThroughput
		d.state.ProcessedTotal = d.processed
		d.state.CostDollars = tr.CostCum
		d.state.AvgLatencySec = tr.AvgLatencySec
		d.state.PausedSeconds = tr.PausedSeconds
		d.state.LastUpdatedUnix = time.Now().Unix()
		d.mu.Unlock()
		if ticker != nil && !d.runner.Done() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-ticker.C:
			}
		}
	}
	return nil
}

// Snapshot returns a copy of the current state.
func (d *Daemon) Snapshot() State {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := d.state
	s.Tasks = append([]int(nil), d.state.Tasks...)
	s.TargetCapacity = append([]float64(nil), d.state.TargetCapacity...)
	s.OperatorNames = append([]string(nil), d.state.OperatorNames...)
	return s
}

// Handler returns the HTTP surface:
//
//	GET /healthz  → 200 "ok" (503 after a loop error)
//	GET /status   → State as JSON
//	GET /metrics  → Prometheus text format
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		d.mu.RLock()
		err := d.lastErr
		d.mu.RUnlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(d.Snapshot()); err != nil {
			return // headers already sent
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s := d.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		scalar := func(name, typ, help string, v float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
		}
		scalar("dragster_slots_completed", "counter", "Decision slots completed.", float64(s.SlotsCompleted))
		scalar("dragster_throughput_tuples_per_second", "gauge", "Measured sink throughput last slot.", s.Throughput)
		scalar("dragster_steady_throughput_tuples_per_second", "gauge", "Steady-state throughput of the current configuration.", s.SteadyThpt)
		scalar("dragster_processed_tuples_total", "counter", "Tuples absorbed by sinks.", s.ProcessedTotal)
		scalar("dragster_cost_dollars_total", "counter", "Dollars accrued by the cluster.", s.CostDollars)
		scalar("dragster_latency_seconds", "gauge", "Little's-law end-to-end latency estimate, last slot mean.", s.AvgLatencySec)
		scalar("dragster_paused_seconds", "gauge", "Reconfiguration pause within the last slot.", float64(s.PausedSeconds))

		fmt.Fprintf(w, "# HELP dragster_operator_tasks Running tasks per operator.\n# TYPE dragster_operator_tasks gauge\n")
		for i, name := range s.OperatorNames {
			if i < len(s.Tasks) {
				fmt.Fprintf(w, "dragster_operator_tasks{operator=%q} %d\n", name, s.Tasks[i])
			}
		}
		if len(s.TargetCapacity) > 0 {
			fmt.Fprintf(w, "# HELP dragster_target_capacity_tuples_per_second Level-1 target capacity per operator.\n# TYPE dragster_target_capacity_tuples_per_second gauge\n")
			for i, name := range s.OperatorNames {
				if i < len(s.TargetCapacity) {
					fmt.Fprintf(w, "dragster_target_capacity_tuples_per_second{operator=%q} %g\n", name, s.TargetCapacity[i])
				}
			}
		}
	})
	return mux
}
