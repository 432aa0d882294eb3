package monitor

import (
	"errors"
	"testing"
)

// fakeJob serves whatever report it currently holds.
type fakeJob struct{ rep *Snapshot }

func (f *fakeJob) LastReport() *Snapshot { return f.rep }

func report(slot int) *Snapshot {
	return &Snapshot{
		Slot:        slot,
		Throughput:  100,
		SourceRates: []float64{100},
		Operators: []OperatorMetrics{
			{Name: "map", Tasks: 1, InRate: 100, OutRate: 100, Util: 0.5},
		},
	}
}

// TestCollectRejectsStaleRepeat is the regression test for the silent
// re-serve bug: a job that keeps returning the slot-N report must not
// yield a second snapshot for slot N.
func TestCollectRejectsStaleRepeat(t *testing.T) {
	job := &fakeJob{rep: report(0)}
	m, err := New(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Collect(); err != nil {
		t.Fatalf("first collect: %v", err)
	}
	if _, err := m.Collect(); !errors.Is(err, ErrNoSample) {
		t.Fatalf("stale repeat yielded err = %v, want ErrNoSample", err)
	}
	// A fresh slot unblocks collection.
	job.rep = report(1)
	snap, err := m.Collect()
	if err != nil {
		t.Fatalf("fresh report rejected: %v", err)
	}
	if snap.Slot != 1 {
		t.Errorf("snapshot slot = %d, want 1", snap.Slot)
	}
	// An older slot than the last collected one is also stale.
	job.rep = report(0)
	if _, err := m.Collect(); !errors.Is(err, ErrNoSample) {
		t.Errorf("regressed slot accepted: %v", err)
	}
}

// funcInterceptor adapts a function to the Interceptor interface.
type funcInterceptor func(*Snapshot) (*Snapshot, error)

func (f funcInterceptor) InterceptReport(rep *Snapshot) (*Snapshot, error) {
	return f(rep)
}

func TestInterceptorErrorPropagates(t *testing.T) {
	m, err := New(&fakeJob{rep: report(0)})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("blackout")
	m.SetInterceptor(funcInterceptor(func(*Snapshot) (*Snapshot, error) {
		return nil, boom
	}))
	if _, err := m.Collect(); !errors.Is(err, boom) {
		t.Errorf("interceptor error swallowed: %v", err)
	}
}

func TestInterceptorNilReportBecomesNoSample(t *testing.T) {
	m, err := New(&fakeJob{rep: report(0)})
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(funcInterceptor(func(*Snapshot) (*Snapshot, error) {
		return nil, nil
	}))
	if _, err := m.Collect(); !errors.Is(err, ErrNoSample) {
		t.Errorf("nil intercepted report yielded %v, want ErrNoSample", err)
	}
}

func TestInterceptorCanSubstituteReport(t *testing.T) {
	m, err := New(&fakeJob{rep: report(3)})
	if err != nil {
		t.Fatal(err)
	}
	swapped := report(7)
	m.SetInterceptor(funcInterceptor(func(*Snapshot) (*Snapshot, error) {
		return swapped, nil
	}))
	snap, err := m.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Slot != 7 {
		t.Errorf("snapshot slot = %d, want the substituted report's 7", snap.Slot)
	}
}

func TestSetInterceptorNilRestoresCleanPath(t *testing.T) {
	job := &fakeJob{rep: report(0)}
	m, err := New(job)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(funcInterceptor(func(*Snapshot) (*Snapshot, error) {
		return nil, errors.New("should not run")
	}))
	m.SetInterceptor(nil)
	if _, err := m.Collect(); err != nil {
		t.Errorf("collect with removed interceptor failed: %v", err)
	}
}
