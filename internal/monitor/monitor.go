// Package monitor implements the Job Monitor component of Dragster: it
// collects per-slot metrics from the Flink JobManager (directly or via the
// monitoring REST API) and the Kubernetes metrics server, and derives the
// observed service capacity of every operator per Eq. 8 of the paper:
//
//	c_i(t) = Σ_{j∈S_i} e_j^i / cpu_i(x_i(t))
//
// along with a backpressure signal used by the Dhalion baseline.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dragster/internal/telemetry"
)

// OperatorMetrics is the per-operator view of one decision slot.
type OperatorMetrics struct {
	Name         string
	Tasks        int     // running tasks during the slot
	CPUMilli     int     // per-pod CPU template (0 when unknown)
	InRate       float64 // tuples/s arriving
	OutRate      float64 // tuples/s emitted
	ConsumedRate float64 // tuples/s drained from input buffers
	Util         float64 // mean CPU utilization in (0, 1]
	Backlog      float64 // buffered tuples at slot end
	// CapacityObs is the Eq. 8 estimate OutRate/Util — a noisy sample of
	// the true service capacity y_i(x_i).
	CapacityObs float64
	// Backpressured is set when the operator cannot keep up: its backlog
	// exceeds the threshold worth of input or its CPU is saturated.
	Backpressured bool
}

// Snapshot is the cross-operator view of one slot.
type Snapshot struct {
	Slot            int
	Throughput      float64 // mean application (sink) tuples/s
	ProcessedTuples float64
	DroppedTuples   float64
	PausedSeconds   int
	Cost            float64   // cumulative dollars
	SourceRates     []float64 // mean offered tuples/s per source
	AvgLatencySec   float64   // Little's-law end-to-end latency, slot mean
	MaxLatencySec   float64
	Operators       []OperatorMetrics
}

// Source supplies raw slot reports. flink.Job satisfies the direct case
// via DirectSource; HTTPSource scrapes the REST API.
type Source interface {
	Fetch() (*telemetry.SlotReport, error)
}

// ReportingJob is any stream-engine runtime exposing its latest slot
// report (flink.Job).
type ReportingJob interface {
	LastReport() *telemetry.SlotReport
}

// DirectSource reads the latest report straight off the job (in-process
// deployment, the common case in experiments).
type DirectSource struct {
	Job ReportingJob
}

// Fetch implements Source.
func (d DirectSource) Fetch() (*telemetry.SlotReport, error) {
	if d.Job == nil {
		return nil, errors.New("monitor: nil job")
	}
	rep := d.Job.LastReport()
	if rep == nil {
		return nil, errors.New("monitor: no slot report yet")
	}
	return rep, nil
}

// HTTPSource scrapes the Flink monitoring REST API.
type HTTPSource struct {
	BaseURL string // e.g. http://jobmanager:8081
	JobName string
	Client  *http.Client // nil → http.DefaultClient
}

// Fetch implements Source.
func (h HTTPSource) Fetch() (*telemetry.SlotReport, error) {
	c := h.Client
	if c == nil {
		c = http.DefaultClient
	}
	resp, err := c.Get(h.BaseURL + "/jobs/" + h.JobName)
	if err != nil {
		return nil, fmt.Errorf("monitor: fetching job report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("monitor: job report status %d", resp.StatusCode)
	}
	var rep telemetry.SlotReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("monitor: decoding job report: %w", err)
	}
	return &rep, nil
}

// Config tunes backpressure detection.
type Config struct {
	// BacklogSeconds flags backpressure when the end-of-slot backlog
	// exceeds this many seconds of the operator's input rate (default 2).
	BacklogSeconds float64
	// UtilSaturation flags backpressure at or above this mean CPU
	// utilization (default 0.95).
	UtilSaturation float64
	// MinUtil floors the utilization used in the Eq. 8 division so a
	// near-idle observation does not produce an absurd capacity estimate
	// (default 0.05).
	MinUtil float64
}

func (c *Config) setDefaults() {
	if c.BacklogSeconds == 0 {
		c.BacklogSeconds = 2
	}
	if c.UtilSaturation == 0 {
		c.UtilSaturation = 0.95
	}
	if c.MinUtil == 0 {
		c.MinUtil = 0.05
	}
}

// ErrNoSample reports that the metrics pipeline has no fresh sample for
// the current slot — the metrics server is blacked out, or the fetched
// report is a stale repeat of one already collected. Callers must treat
// it as "no observation this slot" (skip the optimizer round), never as a
// zero or repeated measurement.
var ErrNoSample = errors.New("monitor: no fresh sample")

// Interceptor sits between the Source and the Monitor. A chaos engine
// installs one via SetInterceptor to model metrics-server dropouts
// (return an error wrapping ErrNoSample) or staleness (return a previous
// report); with none installed the fetch path is unchanged.
type Interceptor interface {
	// InterceptReport receives the freshly fetched report and returns the
	// report the Monitor should see, or an error.
	InterceptReport(rep *telemetry.SlotReport) (*telemetry.SlotReport, error)
}

// Monitor converts raw slot reports into snapshots.
type Monitor struct {
	src Source
	cfg Config

	interceptor Interceptor
	tracer      *telemetry.Tracer
	collected   bool
	lastSlot    int

	// snapBuf is the snapshot returned by Collect, reused call to call
	// (see Collect's aliasing contract).
	snapBuf Snapshot
}

// New returns a Monitor over the given source.
func New(src Source, cfg Config) (*Monitor, error) {
	if src == nil {
		return nil, errors.New("monitor: nil source")
	}
	cfg.setDefaults()
	if cfg.BacklogSeconds < 0 || cfg.UtilSaturation <= 0 || cfg.UtilSaturation > 1 || cfg.MinUtil <= 0 {
		return nil, fmt.Errorf("monitor: invalid config %+v", cfg)
	}
	return &Monitor{src: src, cfg: cfg}, nil
}

// SetInterceptor installs (or, with nil, removes) the fetch interceptor.
func (m *Monitor) SetInterceptor(ic Interceptor) { m.interceptor = ic }

// SetTracer installs (or, with nil, removes) the observability tracer.
// Each Collect emits one "collect" event recording its outcome: "fresh",
// "stale", or "error" (fetch or interceptor failure).
func (m *Monitor) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// Collect fetches the latest slot report and derives operator metrics.
// A report whose slot does not advance past the last collected one is a
// stale repeat — the job produced no new data since the previous Collect —
// and yields an error wrapping ErrNoSample instead of silently re-serving
// old measurements.
//
// The returned snapshot aliases monitor-owned storage that is overwritten
// by the next successful Collect — the same read-only borrowing contract
// as streamsim's TickStats.Ops and cluster's PodMetrics. Callers that
// keep it past the next Collect must copy it first.
func (m *Monitor) Collect() (*Snapshot, error) {
	rep, err := m.src.Fetch()
	if err != nil {
		m.tracer.Event("monitor", "collect", telemetry.Str("outcome", "error"))
		m.tracer.Metrics().Inc("monitor_collect_errors")
		return nil, err
	}
	if m.interceptor != nil {
		rep, err = m.interceptor.InterceptReport(rep)
		if err != nil {
			m.tracer.Event("monitor", "collect", telemetry.Str("outcome", "error"))
			m.tracer.Metrics().Inc("monitor_collect_errors")
			return nil, err
		}
		if rep == nil {
			m.tracer.Event("monitor", "collect", telemetry.Str("outcome", "error"))
			m.tracer.Metrics().Inc("monitor_collect_errors")
			return nil, fmt.Errorf("monitor: interceptor returned nil report: %w", ErrNoSample)
		}
	}
	if m.collected && rep.Slot <= m.lastSlot {
		m.tracer.Event("monitor", "collect",
			telemetry.Str("outcome", "stale"),
			telemetry.Int("slot", rep.Slot))
		m.tracer.Metrics().Inc("monitor_collect_stale")
		return nil, fmt.Errorf("monitor: slot %d already collected, report is stale: %w", rep.Slot, ErrNoSample)
	}
	m.collected = true
	m.lastSlot = rep.Slot
	snap := &m.snapBuf
	if cap(snap.SourceRates) < len(rep.SourceRates) {
		snap.SourceRates = make([]float64, len(rep.SourceRates))
	}
	if cap(snap.Operators) < len(rep.Vertices) {
		snap.Operators = make([]OperatorMetrics, len(rep.Vertices))
	}
	*snap = Snapshot{
		Slot:            rep.Slot,
		Throughput:      rep.Throughput,
		ProcessedTuples: rep.ProcessedTuples,
		DroppedTuples:   rep.DroppedTuples,
		PausedSeconds:   rep.PausedSeconds,
		Cost:            rep.CostSoFar,
		SourceRates:     snap.SourceRates[:len(rep.SourceRates)],
		AvgLatencySec:   rep.AvgLatencySec,
		MaxLatencySec:   rep.MaxLatencySec,
		Operators:       snap.Operators[:len(rep.Vertices)],
	}
	copy(snap.SourceRates, rep.SourceRates)
	for i, v := range rep.Vertices {
		util := v.Util
		if util < m.cfg.MinUtil {
			util = m.cfg.MinUtil
		}
		om := OperatorMetrics{
			Name:         v.Name,
			Tasks:        v.RunningTasks,
			CPUMilli:     v.CPUMilli,
			InRate:       v.InRate,
			OutRate:      v.OutRate,
			ConsumedRate: v.ConsumedRate,
			Util:         v.Util,
			Backlog:      v.Backlog,
			CapacityObs:  v.OutRate / util,
		}
		om.Backpressured = v.Util >= m.cfg.UtilSaturation ||
			(v.InRate > 0 && v.Backlog > m.cfg.BacklogSeconds*v.InRate)
		snap.Operators[i] = om
	}
	m.tracer.Event("monitor", "collect",
		telemetry.Str("outcome", "fresh"),
		telemetry.Int("slot", snap.Slot),
		telemetry.Float("throughput", snap.Throughput))
	m.tracer.Metrics().Inc("monitor_collect_fresh")
	return snap, nil
}
