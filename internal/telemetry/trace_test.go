package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.SetClock(func() int64 { return 5 })
	tr.SetSlot(3)
	tr.SetMetrics(NewRegistry())
	sp := tr.Begin("core", "decide", Int("slot", 3))
	sp.Annotate(Float("y", 1.5))
	sp.End()
	tr.Event("chaos", "node-crash")
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer recorded %d spans", len(got))
	}
	if tr.Metrics() != nil {
		t.Error("nil tracer returned a registry")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil tracer wrote %d bytes", buf.Len())
	}
}

func TestTracerNesting(t *testing.T) {
	clock := int64(0)
	tr := NewTracer()
	tr.SetClock(func() int64 { return clock })
	tr.SetSlot(7)

	round := tr.Begin("experiment", "round")
	clock = 10
	gp := tr.Begin("gp", "refit", Int("n", 42))
	clock = 25
	tr.Event("chaos", "node-crash", Str("node", "node-3"))
	gp.End()
	clock = 30
	round.Annotate(Float("regret", 123.5))
	round.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	r, g, ev := spans[0], spans[1], spans[2]
	if r.Parent != 0 || r.Start != 0 || r.End != 30 || r.Slot != 7 {
		t.Errorf("round span %+v", r)
	}
	if g.Parent != r.ID || g.Start != 10 || g.End != 25 {
		t.Errorf("gp span %+v, want parent %d", g, r.ID)
	}
	if ev.Parent != g.ID || ev.Start != 25 || ev.End != 25 {
		t.Errorf("event span %+v, want parent %d", ev, g.ID)
	}
	if v, ok := r.AttrValue("regret"); !ok || v != "123.5" {
		t.Errorf("regret attr = %q, %v", v, ok)
	}
	if v, ok := ev.AttrValue("node"); !ok || v != "node-3" {
		t.Errorf("node attr = %q, %v", v, ok)
	}
}

// A parent ending before its child (error-path early return) must close
// the child at the same instant, keeping the trace well-nested.
func TestTracerEndClosesOrphanedChildren(t *testing.T) {
	clock := int64(0)
	tr := NewTracer()
	tr.SetClock(func() int64 { return clock })
	outer := tr.Begin("core", "decide")
	tr.Begin("osp", "step") // never explicitly ended
	clock = 9
	outer.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.End != 9 {
			t.Errorf("span %s end = %d, want 9", sp.Name, sp.End)
		}
	}
	// The stack must be empty again: a new span is a root.
	nxt := tr.Begin("core", "decide")
	nxt.End()
	if got := tr.Spans()[2].Parent; got != 0 {
		t.Errorf("post-cleanup span parent = %d, want 0 (root)", got)
	}
}

func TestTimeInPhase(t *testing.T) {
	clock := int64(0)
	tr := NewTracer()
	tr.SetClock(func() int64 { return clock })
	for i := 0; i < 3; i++ {
		sp := tr.Begin("flink", "rescale")
		clock += 30
		sp.End()
		ev := tr.Begin("gp", "refit")
		clock += 5
		ev.End()
	}
	rows := TimeInPhase(tr.Spans())
	if len(rows) != 2 {
		t.Fatalf("got %d phase rows, want 2", len(rows))
	}
	if rows[0].Name != "rescale" || rows[0].Seconds != 90 || rows[0].Count != 3 {
		t.Errorf("top row %+v, want rescale/90s/3", rows[0])
	}
	if rows[1].Name != "refit" || rows[1].Seconds != 15 {
		t.Errorf("second row %+v, want refit/15s", rows[1])
	}
}

// TestAttrConstructors: each typed attribute renders as its fmt.Sprint
// form (the shortest round-trip one for a float), and only a string
// attribute carries its Value before rendering.
func TestAttrConstructors(t *testing.T) {
	cases := []struct {
		attr Attr
		want string
	}{
		{Str("a", "b"), "b"},
		{Int("a", -3), "-3"},
		{Float("a", 0.1), "0.1"},
		{Float("a", 12345.678), "12345.678"},
		{Float("a", math.Inf(-1)), "-Inf"},
		{Ints("a", []int{4, -1, 10}), "[4 -1 10]"},
		{Ints("a", []int{7}), "[7]"},
		{Ints("a", nil), "[]"},
	}
	for _, c := range cases {
		if c.attr.kind != attrRendered && c.attr.Value != "" {
			t.Errorf("typed attr carries %q before rendering", c.attr.Value)
		}
		a := c.attr
		a.render()
		if a.Value != c.want {
			t.Errorf("attr value %q, want %q", a.Value, c.want)
		}
		if !reflect.DeepEqual(a, Attr{Key: "a", Value: c.want}) {
			t.Errorf("rendered attr %+v keeps its typed value", a)
		}
		if c.attr.kind == attrInts && fmt.Sprint(c.attr.ints) != c.want {
			t.Errorf("fmt.Sprint gives %q, want %q", fmt.Sprint(c.attr.ints), c.want)
		}
	}
}

// TestSpansRenderRecordedAttrs: spans read back carry rendered values, and
// an Ints attribute shows the slice as it was when recorded.
func TestSpansRenderRecordedAttrs(t *testing.T) {
	tr := NewTracer()
	tasks := []int{1, 2}
	sp := tr.Begin("core", "decide", Ints("tasks", tasks), Float("y", 2.5))
	tasks[0] = 9
	sp.Annotate(Int("n", 3), Ints("tasks", tasks))
	tasks[1] = 9
	tr.Event("ucb", "select", Ints("tasks", tasks))
	sp.End()
	for range 2 { // a second read sees the same values
		spans := tr.Spans()
		want := [][]Attr{
			{{Key: "tasks", Value: "[1 2]"}, {Key: "y", Value: "2.5"}, {Key: "n", Value: "3"}, {Key: "tasks", Value: "[9 2]"}},
			{{Key: "tasks", Value: "[9 9]"}},
		}
		for i, sp := range spans {
			if !reflect.DeepEqual(sp.Attrs, want[i]) {
				t.Errorf("span %d attrs %+v, want %+v", i, sp.Attrs, want[i])
			}
		}
	}
}
