package tenant

import (
	"errors"
	"slices"

	"dragster/internal/chaos"
	"dragster/internal/telemetry"
)

// maxRescaleAttempts bounds how often one desired configuration is
// attempted before it is abandoned. The controller re-decides every slot,
// so abandoning a target only means waiting for the next one. The backoff
// after failure k is 2^(k−1) decision slots, so the longest wait before an
// abandonment is 4 slots.
const maxRescaleAttempts = 4

// rescaler is the substrate surface the retrier drives (flink.Job
// satisfies it).
type rescaler interface {
	RescaleResources(tasks []int, cpuMilli []int) error
}

// retrier applies desired configurations to a substrate with bounded
// retry and exponential backoff measured in decision slots — the
// controller keeps optimizing through savepoint failures and rescale
// timeouts instead of crashing the run on the first transient error.
// Injected faults (chaos.ErrInjected) are transient; any other rescale
// error is fatal. Deterministic: its state is a pure function of the
// apply call sequence.
type retrier struct {
	// counters receives rescale_failures / rescale_retries /
	// rescale_recovered / rescale_abandoned / rescale_backoff_waits.
	counters *telemetry.Registry

	pendTasks []int
	pendCPU   []int
	attempts  int
	nextSlot  int
}

// apply attempts to drive the substrate to the desired configuration at
// the given decision slot. Transient failures are absorbed: the target is
// re-attempted on a later apply call once the backoff expires, up to
// maxRescaleAttempts, after which the target is abandoned. A changed
// desired configuration always supersedes the pending one and resets the
// attempt budget. Only fatal errors are returned.
func (r *retrier) apply(job rescaler, tasks, cpuMilli []int, slot int) error {
	if !slices.Equal(tasks, r.pendTasks) || !slices.Equal(cpuMilli, r.pendCPU) {
		// New target from the controller: supersede the pending one.
		r.pendTasks = append([]int(nil), tasks...)
		r.pendCPU = append([]int(nil), cpuMilli...)
		r.attempts, r.nextSlot = 0, 0
	}
	if slot < r.nextSlot {
		r.counters.Inc("rescale_backoff_waits")
		return nil
	}
	if r.attempts > 0 {
		r.counters.Inc("rescale_retries")
	}
	err := job.RescaleResources(r.pendTasks, r.pendCPU)
	if err == nil {
		if r.attempts > 0 {
			r.counters.Inc("rescale_recovered")
		}
		r.reset()
		return nil
	}
	if !errors.Is(err, chaos.ErrInjected) {
		r.reset()
		return err
	}
	r.attempts++
	r.counters.Inc("rescale_failures")
	if r.attempts >= maxRescaleAttempts {
		r.counters.Inc("rescale_abandoned")
		r.reset()
		return nil
	}
	r.nextSlot = slot + 1<<(r.attempts-1)
	return nil
}

func (r *retrier) reset() {
	r.pendTasks, r.pendCPU = nil, nil
	r.attempts, r.nextSlot = 0, 0
}
