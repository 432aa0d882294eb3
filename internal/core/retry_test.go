package core

import (
	"errors"
	"testing"

	"dragster/internal/telemetry"
)

var errTransient = errors.New("transient rescale fault")

// scriptedRescaler consumes one scripted error per call (nil = success)
// and records the applied targets.
type scriptedRescaler struct {
	errs  []error
	calls int
	last  []int
}

func (s *scriptedRescaler) RescaleResources(tasks, cpuMilli []int) error {
	s.calls++
	s.last = append([]int(nil), tasks...)
	if len(s.errs) == 0 {
		return nil
	}
	e := s.errs[0]
	s.errs = s.errs[1:]
	return e
}

func transientOnly(err error) bool { return errors.Is(err, errTransient) }

func TestRetrierSuccessPassthrough(t *testing.T) {
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly})
	job := &scriptedRescaler{}
	if err := r.Apply(job, []int{2, 3}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 1 || job.last[0] != 2 || job.last[1] != 3 {
		t.Errorf("apply did not pass the target through: calls=%d last=%v", job.calls, job.last)
	}
	if r.pendTasks != nil || r.LastErr() != nil {
		t.Errorf("clean success left retry state: pending=%v lastErr=%v", r.pendTasks != nil, r.LastErr())
	}
}

func TestRetrierRecoversAfterBackoff(t *testing.T) {
	cs := telemetry.NewRegistry()
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly, Counters: cs})
	job := &scriptedRescaler{errs: []error{errTransient}}
	target := []int{4, 4}

	if err := r.Apply(job, target, nil, 0); err != nil {
		t.Fatalf("transient failure escaped: %v", err)
	}
	if r.pendTasks == nil || !errors.Is(r.LastErr(), errTransient) {
		t.Fatalf("failure not absorbed: pending=%v lastErr=%v", r.pendTasks != nil, r.LastErr())
	}
	// Same slot: still backing off, no new attempt.
	if err := r.Apply(job, target, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 1 {
		t.Fatalf("retried during backoff: %d calls", job.calls)
	}
	// Next slot: retry succeeds.
	if err := r.Apply(job, target, nil, 1); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 || r.pendTasks != nil || r.LastErr() != nil {
		t.Errorf("recovery incomplete: calls=%d pending=%v lastErr=%v", job.calls, r.pendTasks != nil, r.LastErr())
	}
	for name, want := range map[string]int64{
		"rescale_failures":      1,
		"rescale_backoff_waits": 1,
		"rescale_retries":       1,
		"rescale_recovered":     1,
		"rescale_abandoned":     0,
	} {
		if got := cs.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestRetrierNewTargetSupersedesPending(t *testing.T) {
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly})
	job := &scriptedRescaler{errs: []error{errTransient}}
	if err := r.Apply(job, []int{2, 2}, nil, 0); err != nil {
		t.Fatal(err)
	}
	// A different target in the same slot must not wait out the old
	// target's one-slot backoff: it supersedes the pending one and
	// applies immediately.
	if err := r.Apply(job, []int{3, 3}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 || job.last[0] != 3 {
		t.Errorf("superseding target not applied: calls=%d last=%v", job.calls, job.last)
	}
	if r.pendTasks != nil {
		t.Error("retry state survived a successful supersede")
	}
}

func TestRetrierAbandonsAfterMaxAttempts(t *testing.T) {
	cs := telemetry.NewRegistry()
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly, Counters: cs})
	job := &scriptedRescaler{}
	for i := 0; i < maxRescaleAttempts; i++ {
		job.errs = append(job.errs, errTransient)
	}
	target := []int{5, 5}
	// Attempt k fails at slot 2^(k−1)−1, once the previous backoff ends.
	for k := 1; k < maxRescaleAttempts; k++ {
		if err := r.Apply(job, target, nil, 1<<(k-1)-1); err != nil {
			t.Fatal(err)
		}
		if r.pendTasks == nil {
			t.Fatalf("target abandoned after %d of %d attempts", k, maxRescaleAttempts)
		}
	}
	if err := r.Apply(job, target, nil, 1<<(maxRescaleAttempts-1)-1); err != nil {
		t.Fatalf("abandonment must absorb the final error: %v", err)
	}
	if job.calls != maxRescaleAttempts {
		t.Fatalf("%d attempts, want %d", job.calls, maxRescaleAttempts)
	}
	if r.pendTasks != nil {
		t.Error("abandoned target still pending")
	}
	if !errors.Is(r.LastErr(), errTransient) {
		t.Errorf("abandonment lost the last error: %v", r.LastErr())
	}
	if got := cs.CounterValue("rescale_abandoned"); got != 1 {
		t.Errorf("rescale_abandoned = %d, want 1", got)
	}
	// The next (fresh) target starts with a clean attempt budget.
	if err := r.Apply(job, []int{6, 6}, nil, 1<<(maxRescaleAttempts-1)); err != nil {
		t.Fatal(err)
	}
	if job.last[0] != 6 {
		t.Errorf("fresh target not applied after abandonment: %v", job.last)
	}
}

// TestRetrierBackoffGrowsAndCaps pins the exponential backoff — 1, 2, 4
// slots after failures 1, 2, 3 — and its cap: the attempt budget ends the
// wait, so no target ever backs off longer than 4 slots.
func TestRetrierBackoffGrowsAndCaps(t *testing.T) {
	if maxRescaleAttempts != 4 {
		t.Fatalf("maxRescaleAttempts = %d; the schedule below assumes 4", maxRescaleAttempts)
	}
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly})
	job := &scriptedRescaler{errs: []error{errTransient, errTransient, errTransient, errTransient}}
	target := []int{7, 7}
	// Failure 1 at slot 0 → backoff 1 → eligible at slot 1.
	if err := r.Apply(job, target, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Failure 2 at slot 1 → backoff 2 → eligible at slot 3.
	if err := r.Apply(job, target, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(job, target, nil, 2); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 {
		t.Fatalf("attempted during grown backoff: %d calls", job.calls)
	}
	// Failure 3 at slot 3 → backoff 4 → eligible at slot 7.
	if err := r.Apply(job, target, nil, 3); err != nil {
		t.Fatal(err)
	}
	for slot := 4; slot < 7; slot++ {
		if err := r.Apply(job, target, nil, slot); err != nil {
			t.Fatal(err)
		}
	}
	if job.calls != 3 {
		t.Fatalf("attempted during grown backoff: %d calls", job.calls)
	}
	// Failure 4 at slot 7 exhausts the attempts: no further backoff.
	if err := r.Apply(job, target, nil, 7); err != nil {
		t.Fatal(err)
	}
	if job.calls != 4 || r.pendTasks != nil {
		t.Errorf("fourth failure did not end the retry: calls=%d pending=%v", job.calls, r.pendTasks != nil)
	}
}

func TestRetrierNonRetryablePropagates(t *testing.T) {
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly})
	fatal := errors.New("bad parallelism")
	job := &scriptedRescaler{errs: []error{fatal}}
	err := r.Apply(job, []int{1, 1}, nil, 0)
	if !errors.Is(err, fatal) {
		t.Fatalf("fatal error absorbed: %v", err)
	}
	if r.pendTasks != nil {
		t.Error("fatal error left a pending target")
	}
}

func TestRetrierNilRetryableTreatsAllAsTransient(t *testing.T) {
	r := NewRescaleRetrier(RetryConfig{})
	job := &scriptedRescaler{errs: []error{errors.New("anything")}}
	if err := r.Apply(job, []int{1, 1}, nil, 0); err != nil {
		t.Fatalf("nil Retryable did not absorb: %v", err)
	}
	if r.pendTasks == nil {
		t.Error("absorbed failure not pending")
	}
}

func TestRetrierValidation(t *testing.T) {
	if err := (&RescaleRetrier{}).Apply(nil, []int{1}, nil, 0); err == nil {
		t.Error("nil rescaler accepted")
	}
}

func TestRetrierCPUDimensionTracked(t *testing.T) {
	r := NewRescaleRetrier(RetryConfig{Retryable: transientOnly})
	job := &scriptedRescaler{errs: []error{errTransient}}
	if err := r.Apply(job, []int{2, 2}, []int{500, 500}, 0); err != nil {
		t.Fatal(err)
	}
	// Same tasks, different CPU = a different target → applied immediately.
	if err := r.Apply(job, []int{2, 2}, []int{1000, 1000}, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 {
		t.Errorf("CPU-only change did not supersede: %d calls", job.calls)
	}
}
