// Package monitor implements the Job Monitor component of Dragster: it
// reads each slot's report off the substrate job — every operator's
// rates and mean CPU utilization — and derives the observed service
// capacity of every operator per Eq. 8 of the paper:
//
//	c_i(t) = Σ_{j∈S_i} e_j^i / cpu_i(x_i(t))
//
// along with a backpressure signal used by the Dhalion baseline.
package monitor

import (
	"errors"
	"fmt"

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
	Slot        int
	Throughput  float64   // mean application (sink) tuples/s
	SourceRates []float64 // mean offered tuples/s per source
	Operators   []OperatorMetrics
}

// Job is the substrate job the monitor reads: its most recent slot
// report, or nil before the first slot completes. flink.Job satisfies it.
type Job interface {
	LastReport() *telemetry.SlotReport
}

// Backpressure detection and the Eq. 8 division.
const (
	// backlogSeconds flags backpressure when the end-of-slot backlog
	// exceeds this many seconds of the operator's input rate.
	backlogSeconds = 2
	// utilSaturation flags backpressure at or above this mean CPU
	// utilization.
	utilSaturation = 0.95
	// minUtil floors the utilization used in the Eq. 8 division so a
	// near-idle observation does not produce an absurd capacity estimate.
	minUtil = 0.05
)

// ErrNoSample reports that the metrics pipeline has no fresh sample for
// the current slot — the metrics pipeline is blacked out, or the job's
// report is a stale repeat of one already collected. Callers must treat
// it as "no observation this slot" (skip the optimizer round), never as a
// zero or repeated measurement.
var ErrNoSample = errors.New("monitor: no fresh sample")

// Interceptor sits between the job and the Monitor. A chaos engine
// installs one via SetInterceptor to model metrics dropouts
// (return an error wrapping ErrNoSample) or staleness (return a previous
// report); with none installed the read path is unchanged.
type Interceptor interface {
	// InterceptReport receives the job's latest report and returns the
	// report the Monitor should see, or an error.
	InterceptReport(rep *telemetry.SlotReport) (*telemetry.SlotReport, error)
}

// Monitor converts raw slot reports into snapshots.
type Monitor struct {
	job Job

	interceptor Interceptor
	tracer      *telemetry.Tracer
	collected   bool
	lastSlot    int

	// snapBuf is the snapshot returned by Collect, reused call to call
	// (see Collect's aliasing contract).
	snapBuf Snapshot
}

// New returns a Monitor over the given job.
func New(job Job) (*Monitor, error) {
	if job == nil {
		return nil, errors.New("monitor: nil job")
	}
	return &Monitor{job: job}, nil
}

// SetInterceptor installs (or, with nil, removes) the report interceptor.
func (m *Monitor) SetInterceptor(ic Interceptor) { m.interceptor = ic }

// SetTracer installs (or, with nil, removes) the observability tracer.
// Each Collect emits one "collect" event recording its outcome: "fresh",
// "stale", or "error" (no report yet, or an interceptor failure).
func (m *Monitor) SetTracer(tr *telemetry.Tracer) { m.tracer = tr }

// Collect reads the job's latest slot report and derives operator metrics.
// A report whose slot does not advance past the last collected one is a
// stale repeat — the job produced no new data since the previous Collect —
// and yields an error wrapping ErrNoSample instead of silently re-serving
// old measurements.
//
// The returned snapshot aliases monitor-owned storage that is overwritten
// by the next successful Collect — the same read-only borrowing contract
// as streamsim's TickStats.Ops. Callers that keep it past the next
// Collect must copy it first.
func (m *Monitor) Collect() (*Snapshot, error) {
	rep := m.job.LastReport()
	if rep == nil {
		m.tracer.Event("monitor", "collect", telemetry.Str("outcome", "error"))
		m.tracer.Metrics().Inc("monitor_collect_errors")
		return nil, errors.New("monitor: no slot report yet")
	}
	var err error
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
		Slot:        rep.Slot,
		Throughput:  rep.Throughput,
		SourceRates: snap.SourceRates[:len(rep.SourceRates)],
		Operators:   snap.Operators[:len(rep.Vertices)],
	}
	copy(snap.SourceRates, rep.SourceRates)
	for i, v := range rep.Vertices {
		util := v.Util
		if util < minUtil {
			util = minUtil
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
		om.Backpressured = v.Util >= utilSaturation ||
			(v.InRate > 0 && v.Backlog > backlogSeconds*v.InRate)
		snap.Operators[i] = om
	}
	m.tracer.Event("monitor", "collect",
		telemetry.Str("outcome", "fresh"),
		telemetry.Int("slot", snap.Slot),
		telemetry.Float("throughput", snap.Throughput))
	m.tracer.Metrics().Inc("monitor_collect_fresh")
	return snap, nil
}
