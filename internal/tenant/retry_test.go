package tenant

import (
	"errors"
	"fmt"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/telemetry"
)

// errTransient is an injected fault, the only kind the retrier absorbs.
var errTransient = fmt.Errorf("transient rescale fault: %w", chaos.ErrInjected)

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

func TestRetrierSuccessPassthrough(t *testing.T) {
	r := &retrier{}
	job := &scriptedRescaler{}
	if err := r.apply(job, []int{2, 3}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 1 || job.last[0] != 2 || job.last[1] != 3 {
		t.Errorf("apply did not pass the target through: calls=%d last=%v", job.calls, job.last)
	}
	if len(r.pendTasks) != 0 {
		t.Error("clean success left a pending target")
	}
}

func TestRetrierRecoversAfterBackoff(t *testing.T) {
	cs := telemetry.NewRegistry()
	r := &retrier{counters: cs}
	job := &scriptedRescaler{errs: []error{errTransient}}
	target := []int{4, 4}

	if err := r.apply(job, target, nil, 0); err != nil {
		t.Fatalf("transient failure escaped: %v", err)
	}
	if len(r.pendTasks) == 0 {
		t.Fatal("failure not absorbed: no pending target")
	}
	// Same slot: still backing off, no new attempt.
	if err := r.apply(job, target, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 1 {
		t.Fatalf("retried during backoff: %d calls", job.calls)
	}
	// Next slot: retry succeeds.
	if err := r.apply(job, target, nil, 1); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 || len(r.pendTasks) != 0 {
		t.Errorf("recovery incomplete: calls=%d pending=%v", job.calls, len(r.pendTasks) != 0)
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
	r := &retrier{}
	job := &scriptedRescaler{errs: []error{errTransient}}
	if err := r.apply(job, []int{2, 2}, nil, 0); err != nil {
		t.Fatal(err)
	}
	// A different target in the same slot must not wait out the old
	// target's one-slot backoff: it supersedes the pending one and
	// applies immediately.
	if err := r.apply(job, []int{3, 3}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 || job.last[0] != 3 {
		t.Errorf("superseding target not applied: calls=%d last=%v", job.calls, job.last)
	}
	if len(r.pendTasks) != 0 {
		t.Error("retry state survived a successful supersede")
	}
}

func TestRetrierAbandonsAfterMaxAttempts(t *testing.T) {
	cs := telemetry.NewRegistry()
	r := &retrier{counters: cs}
	job := &scriptedRescaler{}
	for i := 0; i < maxRescaleAttempts; i++ {
		job.errs = append(job.errs, errTransient)
	}
	target := []int{5, 5}
	// Attempt k fails at slot 2^(k−1)−1, once the previous backoff ends.
	for k := 1; k < maxRescaleAttempts; k++ {
		if err := r.apply(job, target, nil, 1<<(k-1)-1); err != nil {
			t.Fatal(err)
		}
		if len(r.pendTasks) == 0 {
			t.Fatalf("target abandoned after %d of %d attempts", k, maxRescaleAttempts)
		}
	}
	if err := r.apply(job, target, nil, 1<<(maxRescaleAttempts-1)-1); err != nil {
		t.Fatalf("abandonment must absorb the final error: %v", err)
	}
	if job.calls != maxRescaleAttempts {
		t.Fatalf("%d attempts, want %d", job.calls, maxRescaleAttempts)
	}
	if len(r.pendTasks) != 0 {
		t.Error("abandoned target still pending")
	}
	if got := cs.CounterValue("rescale_abandoned"); got != 1 {
		t.Errorf("rescale_abandoned = %d, want 1", got)
	}
	// The next (fresh) target starts with a clean attempt budget.
	if err := r.apply(job, []int{6, 6}, nil, 1<<(maxRescaleAttempts-1)); err != nil {
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
	r := &retrier{}
	job := &scriptedRescaler{errs: []error{errTransient, errTransient, errTransient, errTransient}}
	target := []int{7, 7}
	// Failure 1 at slot 0 → backoff 1 → eligible at slot 1.
	if err := r.apply(job, target, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Failure 2 at slot 1 → backoff 2 → eligible at slot 3.
	if err := r.apply(job, target, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.apply(job, target, nil, 2); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 {
		t.Fatalf("attempted during grown backoff: %d calls", job.calls)
	}
	// Failure 3 at slot 3 → backoff 4 → eligible at slot 7.
	if err := r.apply(job, target, nil, 3); err != nil {
		t.Fatal(err)
	}
	for slot := 4; slot < 7; slot++ {
		if err := r.apply(job, target, nil, slot); err != nil {
			t.Fatal(err)
		}
	}
	if job.calls != 3 {
		t.Fatalf("attempted during grown backoff: %d calls", job.calls)
	}
	// Failure 4 at slot 7 exhausts the attempts: no further backoff.
	if err := r.apply(job, target, nil, 7); err != nil {
		t.Fatal(err)
	}
	if job.calls != 4 || len(r.pendTasks) != 0 {
		t.Errorf("fourth failure did not end the retry: calls=%d pending=%v", job.calls, len(r.pendTasks) != 0)
	}
}

func TestRetrierNonRetryablePropagates(t *testing.T) {
	r := &retrier{}
	fatal := errors.New("bad parallelism")
	job := &scriptedRescaler{errs: []error{fatal}}
	err := r.apply(job, []int{1, 1}, nil, 0)
	if !errors.Is(err, fatal) {
		t.Fatalf("fatal error absorbed: %v", err)
	}
	if len(r.pendTasks) != 0 {
		t.Error("fatal error left a pending target")
	}
}

func TestRetrierCPUDimensionTracked(t *testing.T) {
	r := &retrier{}
	job := &scriptedRescaler{errs: []error{errTransient}}
	if err := r.apply(job, []int{2, 2}, []int{500, 500}, 0); err != nil {
		t.Fatal(err)
	}
	// Same tasks, different CPU = a different target → applied immediately.
	if err := r.apply(job, []int{2, 2}, []int{1000, 1000}, 0); err != nil {
		t.Fatal(err)
	}
	if job.calls != 2 {
		t.Errorf("CPU-only change did not supersede: %d calls", job.calls)
	}
}

// quietRescaler fails while fail is set and records whether its last call
// carried a CPU vector; it allocates nothing.
type quietRescaler struct {
	fail   bool
	calls  int
	cpuNil bool
}

func (q *quietRescaler) RescaleResources(tasks, cpuMilli []int) error {
	q.calls++
	q.cpuNil = cpuMilli == nil
	if q.fail {
		return errTransient
	}
	return nil
}

// TestRetrierWarmAllocatesNothing: once its target storage has grown, a
// retrier allocates nothing for a new target, a repeated one or a
// success, and a target without a CPU vector after one with it still
// reaches the rescaler as nil.
func TestRetrierWarmAllocatesNothing(t *testing.T) {
	r := &retrier{counters: telemetry.NewRegistry()}
	job := &quietRescaler{}
	target, next, cpu := []int{2, 3, 4}, []int{3, 3, 4}, []int{500, 500, 1000}
	slot := 0
	apply := func(tasks, cpuMilli []int, slot int) {
		if err := r.apply(job, tasks, cpuMilli, slot); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		// A new target fails, waits out its backoff as a repeated target
		// and then succeeds; a new target without CPU succeeds at once.
		job.fail = true
		apply(target, cpu, slot)
		apply(target, cpu, slot)
		job.fail = false
		apply(target, cpu, slot+1)
		apply(next, nil, slot+1)
		slot += 2
	}
	round()
	if job.calls != 3 || !job.cpuNil || len(r.pendTasks) != 0 {
		t.Fatalf("calls=%d cpuNil=%v pending=%v, want 3 calls, a nil CPU vector and nothing pending", job.calls, job.cpuNil, r.pendTasks)
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("a warmed retrier allocates %v per round of new, repeated and successful targets, want 0", allocs)
	}
}
