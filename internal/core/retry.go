package core

import (
	"errors"

	"dragster/internal/telemetry"
)

// Rescaler is the substrate surface the retrier drives (flink.Job
// satisfies it).
type Rescaler interface {
	RescaleResources(tasks []int, cpuMilli []int) error
}

// maxRescaleAttempts bounds how often one desired configuration is
// attempted before it is abandoned. The controller re-decides every slot,
// so abandoning a target only means waiting for the next one. The backoff
// after failure k is 2^(k−1) decision slots, so the longest wait before an
// abandonment is 4 slots.
const maxRescaleAttempts = 4

// RetryConfig tunes a RescaleRetrier.
type RetryConfig struct {
	// Retryable classifies rescale errors. Errors for which it returns
	// false are propagated to the caller as fatal instead of retried; nil
	// treats every error as transient.
	Retryable func(error) bool
	// Counters, when set, receives rescale_failures / rescale_retries /
	// rescale_recovered / rescale_abandoned / rescale_backoff_waits.
	Counters *telemetry.Registry
}

// RescaleRetrier applies desired configurations to a substrate with
// bounded retry and exponential backoff measured in decision slots — the
// controller keeps optimizing through savepoint failures and rescale
// timeouts instead of crashing the run on the first transient error.
// Deterministic: its state is a pure function of the Apply call sequence.
type RescaleRetrier struct {
	cfg RetryConfig

	pendTasks []int
	pendCPU   []int
	attempts  int
	nextSlot  int
	lastErr   error
}

// NewRescaleRetrier returns a retrier.
func NewRescaleRetrier(cfg RetryConfig) *RescaleRetrier {
	return &RescaleRetrier{cfg: cfg}
}

// LastErr returns the most recent rescale error absorbed into retry
// state, or nil after a success.
func (r *RescaleRetrier) LastErr() error { return r.lastErr }

// Apply attempts to drive the substrate to the desired configuration at
// the given decision slot. Transient failures (per Retryable) are
// absorbed: the target is re-attempted on a later Apply call once the
// backoff expires, up to maxRescaleAttempts, after which the target is
// abandoned. A changed desired configuration always supersedes the
// pending one and resets the attempt budget. Only non-retryable errors
// are returned.
func (r *RescaleRetrier) Apply(job Rescaler, tasks, cpuMilli []int, slot int) error {
	if job == nil {
		return errors.New("core: nil rescaler")
	}
	if !intsEqual(tasks, r.pendTasks) || !intsEqual(cpuMilli, r.pendCPU) {
		// New target from the controller: supersede the pending one.
		r.pendTasks = append([]int(nil), tasks...)
		if cpuMilli != nil {
			r.pendCPU = append([]int(nil), cpuMilli...)
		} else {
			r.pendCPU = nil
		}
		r.attempts = 0
		r.nextSlot = 0
	}
	if slot < r.nextSlot {
		r.cfg.Counters.Inc("rescale_backoff_waits")
		return nil
	}
	if r.attempts > 0 {
		r.cfg.Counters.Inc("rescale_retries")
	}
	err := job.RescaleResources(r.pendTasks, r.pendCPU)
	if err == nil {
		if r.attempts > 0 {
			r.cfg.Counters.Inc("rescale_recovered")
		}
		r.reset()
		return nil
	}
	if r.cfg.Retryable != nil && !r.cfg.Retryable(err) {
		r.reset()
		r.lastErr = err
		return err
	}
	r.lastErr = err
	r.attempts++
	r.cfg.Counters.Inc("rescale_failures")
	if r.attempts >= maxRescaleAttempts {
		r.cfg.Counters.Inc("rescale_abandoned")
		r.reset()
		r.lastErr = err
		return nil
	}
	r.nextSlot = slot + 1<<(r.attempts-1)
	return nil
}

func (r *RescaleRetrier) reset() {
	r.pendTasks, r.pendCPU = nil, nil
	r.attempts, r.nextSlot = 0, 0
	r.lastErr = nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
