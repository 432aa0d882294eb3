package monitor

import (
	"errors"
	"testing"

	"dragster/internal/telemetry"
)

// fakeSource serves whatever report it currently holds.
type fakeSource struct{ rep *telemetry.SlotReport }

func (f *fakeSource) Fetch() (*telemetry.SlotReport, error) {
	if f.rep == nil {
		return nil, errors.New("fake: no report")
	}
	return f.rep, nil
}

func report(slot int) *telemetry.SlotReport {
	return &telemetry.SlotReport{
		Slot:        slot,
		Throughput:  100,
		SourceRates: []float64{100},
		Vertices: []telemetry.VertexStats{
			{Name: "map", RunningTasks: 1, InRate: 100, OutRate: 100, Util: 0.5},
		},
	}
}

// TestCollectRejectsStaleRepeat is the regression test for the silent
// re-serve bug: a source that keeps returning the slot-N report must not
// yield a second snapshot for slot N.
func TestCollectRejectsStaleRepeat(t *testing.T) {
	src := &fakeSource{rep: report(0)}
	m, err := New(src)
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
	src.rep = report(1)
	snap, err := m.Collect()
	if err != nil {
		t.Fatalf("fresh report rejected: %v", err)
	}
	if snap.Slot != 1 {
		t.Errorf("snapshot slot = %d, want 1", snap.Slot)
	}
	// An older slot than the last collected one is also stale.
	src.rep = report(0)
	if _, err := m.Collect(); !errors.Is(err, ErrNoSample) {
		t.Errorf("regressed slot accepted: %v", err)
	}
}

// funcInterceptor adapts a function to the Interceptor interface.
type funcInterceptor func(*telemetry.SlotReport) (*telemetry.SlotReport, error)

func (f funcInterceptor) InterceptReport(rep *telemetry.SlotReport) (*telemetry.SlotReport, error) {
	return f(rep)
}

func TestInterceptorErrorPropagates(t *testing.T) {
	m, err := New(&fakeSource{rep: report(0)})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("blackout")
	m.SetInterceptor(funcInterceptor(func(*telemetry.SlotReport) (*telemetry.SlotReport, error) {
		return nil, boom
	}))
	if _, err := m.Collect(); !errors.Is(err, boom) {
		t.Errorf("interceptor error swallowed: %v", err)
	}
}

func TestInterceptorNilReportBecomesNoSample(t *testing.T) {
	m, err := New(&fakeSource{rep: report(0)})
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(funcInterceptor(func(*telemetry.SlotReport) (*telemetry.SlotReport, error) {
		return nil, nil
	}))
	if _, err := m.Collect(); !errors.Is(err, ErrNoSample) {
		t.Errorf("nil intercepted report yielded %v, want ErrNoSample", err)
	}
}

func TestInterceptorCanSubstituteReport(t *testing.T) {
	m, err := New(&fakeSource{rep: report(3)})
	if err != nil {
		t.Fatal(err)
	}
	swapped := report(7)
	m.SetInterceptor(funcInterceptor(func(*telemetry.SlotReport) (*telemetry.SlotReport, error) {
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
	src := &fakeSource{rep: report(0)}
	m, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(funcInterceptor(func(*telemetry.SlotReport) (*telemetry.SlotReport, error) {
		return nil, errors.New("should not run")
	}))
	m.SetInterceptor(nil)
	if _, err := m.Collect(); err != nil {
		t.Errorf("collect with removed interceptor failed: %v", err)
	}
}
