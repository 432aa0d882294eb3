package telemetry

import (
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 5)
	r.SetGauge("g", 1.5)
	r.DeleteGauge("g")
	if err := r.DefineHistogram("h", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	r.Observe("h", 1.0)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot has %d records", len(got))
	}
	if got := r.CounterValue("a"); got != 0 {
		t.Errorf("nil registry counter = %d", got)
	}
	if _, ok := r.GaugeValue("g"); ok {
		t.Error("nil registry gauge set")
	}
}

func TestRegistryDeleteGauge(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("keep", 1)
	r.SetGauge("drop", 2)
	r.DeleteGauge("drop")
	r.DeleteGauge("never_set")
	if _, ok := r.GaugeValue("drop"); ok {
		t.Error("deleted gauge still set")
	}
	if v, ok := r.GaugeValue("keep"); !ok || v != 1 {
		t.Errorf("untouched gauge = %v,%v", v, ok)
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Name != "keep" {
		t.Errorf("snapshot after delete = %+v", snap)
	}
	r.SetGauge("drop", 3) // a deleted gauge can be set again
	if v, ok := r.GaugeValue("drop"); !ok || v != 3 {
		t.Errorf("re-set gauge = %v,%v", v, ok)
	}
}

func TestRegistryTypedSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Inc("z_count")
	r.Add("a_count", 2)
	r.SetGauge("gauge", 3.5)
	r.SetGauge("gauge", 4.5) // last write wins
	if err := r.DefineHistogram("pause_sec", []float64{10, 30, 60}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 10, 31, 120} {
		r.Observe("pause_sec", v)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(snap))
	}
	// Counters sorted by name first.
	if snap[0].Name != "a_count" || snap[0].Kind != "counter" || snap[0].Value != 2 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "z_count" || snap[1].Value != 1 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
	if snap[2].Kind != "gauge" || snap[2].Value != 4.5 {
		t.Errorf("snap[2] = %+v", snap[2])
	}
	h := snap[3]
	if h.Kind != "histogram" || h.Count != 4 || h.Sum != 166 {
		t.Errorf("histogram record %+v", h)
	}
	// v ≤ bound goes into that bucket: 5,10 → ≤10; 31 → (30,60]; 120 → +Inf.
	wantBuckets := []int64{2, 0, 1, 1}
	for i, b := range h.Buckets {
		if b != wantBuckets[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, b, wantBuckets[i])
		}
	}
}

// The counter half of the registry: Inc/Add accumulate per name, a
// never-incremented counter reads 0, and the snapshot lists counters
// sorted by name.
func TestCountersBasics(t *testing.T) {
	r := NewRegistry()
	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("CounterValue(missing) = %d", got)
	}
	r.Inc("b")
	r.Add("a", 3)
	r.Inc("b")
	if got := r.CounterValue("a"); got != 3 {
		t.Errorf("a = %d", got)
	}
	if got := r.CounterValue("b"); got != 2 {
		t.Errorf("b = %d", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Kind != "counter" || snap[0].Value != 3 || snap[1].Value != 2 {
		t.Errorf("snapshot values: %+v", snap)
	}
	if got := NewRegistry().Snapshot(); len(got) != 0 {
		t.Errorf("empty registry snapshot has %d records", len(got))
	}
}

func TestCountersNegativeDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delta did not panic")
		}
	}()
	NewRegistry().Add("x", -1)
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("hits")
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("hits"); got != 8000 {
		t.Errorf("hits = %d, want 8000", got)
	}
}

func TestRegistryHistogramRedefine(t *testing.T) {
	r := NewRegistry()
	if err := r.DefineHistogram("h", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.DefineHistogram("h", []float64{1, 2}); err != nil {
		t.Errorf("identical redefine failed: %v", err)
	}
	if err := r.DefineHistogram("h", []float64{1, 3}); err == nil {
		t.Error("conflicting redefine succeeded")
	}
	if err := r.DefineHistogram("bad", []float64{2, 2}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if err := r.DefineHistogram("empty", nil); err == nil {
		t.Error("empty bounds accepted")
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("negative delta", func() { r.Add("c", -1) })
	expectPanic("undefined histogram", func() { r.Observe("nope", 1) })
}

// The registry is the one observability surface shared with worker
// goroutines (the controllers of fleet.decideAll's parallel decide pass
// count through core.Config.Counters); this test exists to put that
// contract under the race detector.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	if err := r.DefineHistogram("h", []float64{10, 100}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Inc("c")
				r.SetGauge("g", float64(w))
				r.Observe("h", float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
	snap := r.Snapshot()
	for _, m := range snap {
		if m.Kind == "histogram" && m.Count != 1600 {
			t.Errorf("histogram count = %d, want 1600", m.Count)
		}
	}
}
