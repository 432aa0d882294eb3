package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Registry is the typed metrics surface of the observability layer:
// monotonic counters, last-value gauges, and fixed-bucket histograms,
// with a deterministic snapshot. One registry serves a whole run: the
// chaos engine, the rescale retrier, the controllers, and the fleet count
// faults, retries and admissions in it, so a seeded run's fault handling
// can be compared across runs counter-for-counter. It follows the
// nil-default hook pattern: every method is a no-op on a nil receiver, so instrumented
// code needs no conditionals and runs unchanged when no registry is
// installed. Safe for concurrent use: the fleet decides its tenants in
// parallel (fleet.decideAll's par.For), and their controllers count
// core_stale_snapshot_skips, core_rejected_capacity_obs and
// core_rejected_throughput_obs through core.Config.Counters into one
// shared registry from those worker goroutines.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

type histogram struct {
	bounds  []float64 // upper bounds of the first len(bounds) buckets
	buckets []int64   // len(bounds)+1 counts; last bucket is +Inf
	count   int64
	sum     float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add increments the named counter by delta. Counters are monotonic;
// negative deltas panic so two runs always compare value-for-value.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: negative counter delta %d for %q", delta, name))
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge records the gauge's current value (last write wins).
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// DeleteGauge drops the named gauge, so a series whose subject is gone
// (a departed tenant's budget share) stops being exported instead of
// reporting its last value forever. Deleting an unset gauge is a no-op.
func (r *Registry) DeleteGauge(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.gauges, name)
	r.mu.Unlock()
}

// DefineHistogram declares a fixed-bucket histogram with the given
// ascending upper bounds (an implicit +Inf bucket is appended). Redefining
// with different bounds is an error; redefining identically is a no-op, so
// emission sites can declare idempotently.
func (r *Registry) DefineHistogram(name string, bounds []float64) error {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		return fmt.Errorf("telemetry: histogram %q needs at least one bucket bound", name)
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return fmt.Errorf("telemetry: histogram %q bounds not strictly ascending at %d", name, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			return fmt.Errorf("telemetry: histogram %q redefined with different bounds", name)
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				return fmt.Errorf("telemetry: histogram %q redefined with different bounds", name)
			}
		}
		return nil
	}
	r.hists[name] = &histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
	return nil
}

// Observe folds v into the named histogram. Observing an undefined
// histogram or a NaN value panics: both are instrumentation bugs, and a
// silently mis-bucketed trace would defeat the run-diff tooling.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	if math.IsNaN(v) {
		panic(fmt.Sprintf("telemetry: NaN observation for histogram %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		panic(fmt.Sprintf("telemetry: histogram %q observed before DefineHistogram", name))
	}
	idx := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[idx]++
	h.count++
	h.sum += v
}

// MetricRecord is one metric in a deterministic snapshot (and one line of
// the JSONL export). Exactly one of the kind-specific field groups is
// meaningful: Value for counters and gauges; Count/Sum/Bounds/Buckets for
// histograms.
type MetricRecord struct {
	Kind    string    `json:"kind"` // "counter" | "gauge" | "histogram"
	Name    string    `json:"name"`
	Value   float64   `json:"value,omitempty"`
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Snapshot returns every metric sorted by (kind, name) — counters, then
// gauges, then histograms — so snapshots of identical runs are
// byte-identical regardless of update order.
func (r *Registry) Snapshot() []MetricRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricRecord, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, MetricRecord{Kind: "counter", Name: name, Value: float64(r.counters[name])})
	}
	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, MetricRecord{Kind: "gauge", Name: name, Value: r.gauges[name]})
	}
	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		out = append(out, MetricRecord{
			Kind:    "histogram",
			Name:    name,
			Count:   h.count,
			Sum:     h.sum,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: append([]int64(nil), h.buckets...),
		})
	}
	return out
}

// CounterValue returns the named counter (0 when never incremented).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// GaugeValue returns the named gauge and whether it was ever set.
func (r *Registry) GaugeValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}
