// Package telemetry is Dragster's observability layer: the sim-time
// tracer, the one metrics Registry a run counts in, and the JSONL,
// Chrome-trace and Prometheus exporters.
package telemetry

import (
	"sort"
	"strconv"
	"sync"
)

// Attr is one key-value pair attached to a span or event. The typed
// constructors keep a number unformatted; the tracer renders it to its
// string Value when the span is read (Spans, which every exporter reads
// through), so a call site with no tracer installed formats nothing. The
// rendering is fixed per type, so a span's byte representation is
// independent of encoder float heuristics.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"` // rendered; empty until then for a typed value
	kind  attrKind
	f     float64
	i     int
	ints  []int
}

// attrKind says which typed field holds an Attr's value before rendering.
type attrKind uint8

const (
	attrRendered attrKind = iota // Value holds the value
	attrFloat
	attrInt
	attrInts
)

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: attrInt, i: v} }

// Float builds a float attribute rendered with the shortest round-trip
// representation ('g', -1), which is deterministic for a given value.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, f: v} }

// Ints builds an integer-slice attribute rendered as fmt.Sprint renders
// it, "[1 2 3]". A tracer copies v when it records the attribute.
func Ints(k string, v []int) Attr { return Attr{Key: k, kind: attrInts, ints: v} }

// render replaces a typed value by its string.
func (a *Attr) render() {
	var b []byte
	switch a.kind {
	case attrRendered:
		return
	case attrFloat:
		b = strconv.AppendFloat(b, a.f, 'g', -1, 64)
	case attrInt:
		b = strconv.AppendInt(b, int64(a.i), 10)
	case attrInts:
		b = append(b, '[')
		for j, v := range a.ints {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	*a = Attr{Key: a.Key, Value: string(b)}
}

// recordAttrs appends attrs to dst, copying every Ints slice, since its
// caller may reuse the slice before the span is read.
func recordAttrs(dst, attrs []Attr) []Attr {
	n := len(dst)
	dst = append(dst, attrs...)
	for j := n; j < len(dst); j++ {
		if dst[j].kind == attrInts {
			dst[j].ints = append([]int(nil), dst[j].ints...)
		}
	}
	return dst
}

// SpanRecord is one closed span of the sim-time trace. Start and End are
// simulation seconds (the cluster clock), never wall time: traces from a
// fixed seed are byte-identical across runs and machines, which is what
// makes a golden trace the strictest determinism oracle in the repo.
type SpanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Slot   int    `json:"slot"`
	Cat    string `json:"cat"` // subsystem: experiment, core, osp, gp, ucb, flink, cluster, monitor, chaos
	Name   string `json:"name"`
	Start  int64  `json:"start"` // sim seconds
	End    int64  `json:"end"`   // sim seconds; == Start for instant events
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Tracer records nested spans keyed to the simulation clock. The zero
// value is not used directly; a nil *Tracer is the "no tracer installed"
// state, and every method is safe (and a no-op) on a nil receiver — the
// same nil-default hook pattern as cluster.Injector, so instrumented code
// carries no conditionals and fault-free overhead is one nil check.
//
// A Tracer is owned by the single-threaded control loop of one run; Begin,
// End and Event must not be called concurrently. The attached metrics
// Registry, by contrast, is safe for concurrent use (the controllers of
// the fleet's parallel decide pass update counters from worker
// goroutines).
type Tracer struct {
	mu    sync.Mutex
	clock func() int64
	slot  int
	spans []SpanRecord
	stack []int // indices into spans of the open span chain
	reg   *Registry
}

// NewTracer returns an empty tracer on a zero clock. Install the sim
// clock with SetClock and, optionally, a metrics registry with
// SetMetrics.
func NewTracer() *Tracer { return &Tracer{} }

// SetClock installs the simulation clock source (e.g. cluster.Clock).
// A nil fn pins the clock at zero.
func (t *Tracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.clock = fn
}

// SetMetrics attaches a metrics registry so exporters can dump metrics
// alongside spans. Metrics returns it (nil on a nil tracer), letting
// emission sites write tracer-gated metrics without holding a second
// handle.
func (t *Tracer) SetMetrics(r *Registry) {
	if t == nil {
		return
	}
	t.reg = r
}

// Metrics returns the attached registry, or nil (on which every Registry
// method is itself a no-op).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// SetSlot sets the decision-slot index stamped on subsequently started
// spans and events. The experiment runner calls it at each slot boundary.
func (t *Tracer) SetSlot(slot int) {
	if t == nil {
		return
	}
	t.slot = slot
}

func (t *Tracer) now() int64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Span is a handle on an open span. A nil *Span (from a nil tracer) is
// inert: Annotate and End are no-ops.
type Span struct {
	t   *Tracer
	idx int
}

// Begin opens a nested span under the innermost open span. End it with
// Span.End; attach late-bound attributes with Span.Annotate.
func (t *Tracer) Begin(cat, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, SpanRecord{
		ID:     idx + 1,
		Parent: parent,
		Slot:   t.slot,
		Cat:    cat,
		Name:   name,
		Start:  t.now(),
		End:    -1,
		Attrs:  recordAttrs(nil, attrs),
	})
	t.stack = append(t.stack, idx)
	return &Span{t: t, idx: idx}
}

// Event records an instant (zero-duration) span under the innermost open
// span.
func (t *Tracer) Event(cat, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	now := t.now()
	t.spans = append(t.spans, SpanRecord{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Slot:   t.slot,
		Cat:    cat,
		Name:   name,
		Start:  now,
		End:    now,
		Attrs:  recordAttrs(nil, attrs),
	})
}

// Annotate appends attributes to the span (usually results computed
// between Begin and End).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := &s.t.spans[s.idx]
	rec.Attrs = recordAttrs(rec.Attrs, attrs)
}

// End closes the span at the current sim clock. Any child spans left open
// (an error path returned early) are closed at the same instant, keeping
// the trace well-nested.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[s.idx].End >= 0 {
		return // already closed (double End, or an ancestor ended first)
	}
	now := t.now()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if t.spans[top].End < 0 {
			t.spans[top].End = now
		}
		if top == s.idx {
			return
		}
	}
}

// Spans returns a copy of all spans recorded so far, in ID (start) order,
// with every attribute rendered. Open spans are reported with End ==
// current clock.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]SpanRecord, len(t.spans))
	for i, sp := range t.spans {
		if sp.End < 0 {
			sp.End = now
		}
		for j := range sp.Attrs {
			sp.Attrs[j].render() // in place, so a value renders once
		}
		sp.Attrs = append([]Attr(nil), sp.Attrs...)
		out[i] = sp
	}
	return out
}

// AttrValue returns the value of the named attribute and whether it is
// present (the last write wins, matching Annotate semantics).
func (s SpanRecord) AttrValue(key string) (string, bool) {
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].Key == key {
			return s.Attrs[i].Value, true
		}
	}
	return "", false
}

// PhaseDuration is one row of the time-in-phase aggregation.
type PhaseDuration struct {
	Cat     string
	Name    string
	Count   int
	Seconds int64 // summed span durations in sim seconds
}

// TimeInPhase aggregates spans by (cat, name), summing durations, sorted
// by descending total then name — the table of dragster trace summarize.
func TimeInPhase(spans []SpanRecord) []PhaseDuration {
	type key struct{ cat, name string }
	agg := make(map[key]*PhaseDuration)
	order := make([]key, 0, 16)
	for _, sp := range spans {
		k := key{sp.Cat, sp.Name}
		row, ok := agg[k]
		if !ok {
			row = &PhaseDuration{Cat: sp.Cat, Name: sp.Name}
			agg[k] = row
			order = append(order, k)
		}
		row.Count++
		if sp.End > sp.Start {
			row.Seconds += sp.End - sp.Start
		}
	}
	out := make([]PhaseDuration, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}
