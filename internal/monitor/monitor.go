// Package monitor implements the Job Monitor component of Dragster. The
// substrate job builds each slot's one Snapshot from the engine's slot
// totals (SlotReport): every operator's rates and mean CPU utilization,
// with the observed service capacity of every operator per Eq. 8 of the
// paper:
//
//	c_i(t) = Σ_{j∈S_i} e_j^i / cpu_i(x_i(t))
//
// along with a backpressure signal used by the Dhalion baseline. The
// Monitor gates that snapshot (interceptor, freshness) before a policy
// reads it.
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
	Util         float64 // mean CPU utilization over the slot's active ticks
	Backlog      float64 // buffered tuples at slot end
	// CapacityObs is the Eq. 8 estimate OutRate/Util — a noisy sample of
	// the true service capacity y_i(x_i).
	CapacityObs float64
	// Backpressured is set when the operator cannot keep up: its backlog
	// exceeds the threshold worth of input or its CPU is saturated.
	Backpressured bool
}

// Snapshot is the report of one decision slot: the substrate finishes
// it, the Monitor gates it and every policy reads it. Each slot's
// snapshot is freshly allocated and never written after SlotReport.
type Snapshot struct {
	Slot            int
	PausedSeconds   int
	Throughput      float64   // mean application (sink) tuples/s
	ProcessedTuples float64   // sink tuples absorbed this slot
	DroppedTuples   float64   // tuples the engine dropped this slot
	SourceRates     []float64 // mean offered tuples/s per source
	Operators       []OperatorMetrics
	CostSoFar       float64 // dollars accrued by the cluster
	// AvgLatencySec is the Little's-law end-to-end latency estimate,
	// averaged over the slot's ticks.
	AvgLatencySec float64
}

// Job is the substrate job the monitor reads: its most recent slot
// report, or nil before the first slot completes. flink.Job satisfies it.
type Job interface {
	LastReport() *Snapshot
}

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
	InterceptReport(rep *Snapshot) (*Snapshot, error)
}

// Monitor gates the job's slot reports on their way to the policy.
type Monitor struct {
	job Job

	interceptor Interceptor
	tracer      *telemetry.Tracer
	collected   bool
	lastSlot    int
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

// Collect returns the job's latest slot report, after the interceptor.
// A report whose slot does not advance past the last collected one is a
// stale repeat — the job produced no new data since the previous Collect —
// and yields an error wrapping ErrNoSample instead of silently re-serving
// old measurements.
func (m *Monitor) Collect() (*Snapshot, error) {
	rep := m.job.LastReport()
	if rep == nil {
		return m.fail(errors.New("monitor: no slot report yet"))
	}
	if m.interceptor != nil {
		var err error
		if rep, err = m.interceptor.InterceptReport(rep); err != nil {
			return m.fail(err)
		}
		if rep == nil {
			return m.fail(fmt.Errorf("monitor: interceptor returned nil report: %w", ErrNoSample))
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
	m.tracer.Event("monitor", "collect",
		telemetry.Str("outcome", "fresh"),
		telemetry.Int("slot", rep.Slot),
		telemetry.Float("throughput", rep.Throughput))
	m.tracer.Metrics().Inc("monitor_collect_fresh")
	return rep, nil
}

// fail records a collect that produced no report and returns err.
func (m *Monitor) fail(err error) (*Snapshot, error) {
	m.tracer.Event("monitor", "collect", telemetry.Str("outcome", "error"))
	m.tracer.Metrics().Inc("monitor_collect_errors")
	return nil, err
}
