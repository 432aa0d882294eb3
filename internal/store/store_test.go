package store

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestAppendHistory(t *testing.T) {
	d := New()
	if err := d.Append(Record{Operator: "", Config: []float64{1}}); err == nil {
		t.Error("record without operator accepted")
	}
	if err := d.Append(Record{Operator: "op"}); err == nil {
		t.Error("record without config accepted")
	}
	cfg := []float64{3}
	if err := d.Append(Record{Slot: 1, Operator: "map", Config: cfg, CapacityObs: 100}); err != nil {
		t.Fatal(err)
	}
	cfg[0] = 99 // must not affect the stored record
	if err := d.Append(Record{Slot: 2, Operator: "shuffle", Config: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	h := d.History("map")
	if len(h) != 1 || h[0].Config[0] != 3 || h[0].CapacityObs != 100 {
		t.Errorf("History(map) = %+v", h)
	}
	h[0].Config[0] = 77
	if d.History("map")[0].Config[0] != 3 {
		t.Error("History leaked internal storage")
	}
	if len(d.History("nobody")) != 0 {
		t.Error("unknown operator has history")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := New()
	if err := d.Append(Record{Slot: 4, Operator: "map", Config: []float64{2}, Throughput: 123, Util: 0.7}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("restored Len = %d", d2.Len())
	}
	h := d2.History("map")
	if h[0].Throughput != 123 || h[0].Util != 0.7 || h[0].Slot != 4 {
		t.Errorf("restored record = %+v", h[0])
	}
}

// TestHistoryIndexSurvivesRestore: the per-operator index is rebuilt by
// Restore, so History after a Snapshot/Restore round trip equals History
// before it for every operator — also when the restoring DB held other
// records — and HistoryFrom is History's suffix.
func TestHistoryIndexSurvivesRestore(t *testing.T) {
	ops := []string{"map", "shuffle", "sink"}
	d := New()
	for i := 0; i < 30; i++ {
		op := ops[(i*i+i/3)%len(ops)]
		r := Record{Slot: i, Operator: op, Config: []float64{float64(i % 7), float64(i)}, CapacityObs: float64(10 * i), Util: 0.5}
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Append(Record{Operator: "map", Config: []float64{42}}); err != nil {
		t.Fatal(err)
	}
	if err := d2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for _, op := range append(ops, "nobody") {
		before, after := d.History(op), d2.History(op)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("History(%s) after restore = %+v, want %+v", op, after, before)
		}
		for from := 0; from <= len(before)+1; from++ {
			got := d2.HistoryFrom(op, from)
			var want []Record
			if from < len(before) {
				want = before[from:]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("HistoryFrom(%s, %d) = %+v, want %+v", op, from, got, want)
			}
		}
	}
	// Appends after a restore extend the rebuilt index.
	if err := d2.Append(Record{Slot: 99, Operator: "sink", Config: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if h := d2.History("sink"); len(h) != len(d.History("sink"))+1 || h[len(h)-1].Slot != 99 {
		t.Errorf("History(sink) after append = %+v", h)
	}
}

// TestRestoreLegacyCandidatesSnapshot: snapshots written before the
// candidate lists left the database carry a "candidates" object; Restore
// still loads their records.
func TestRestoreLegacyCandidatesSnapshot(t *testing.T) {
	legacy := `{
  "records": [
    {"slot": 3, "operator": "map", "config": [2], "throughput": 90, "capacity_obs": 120, "util": 0.8}
  ],
  "candidates": {"map": [[1], [2], [3]]}
}`
	d := New()
	if err := d.Restore(strings.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	h := d.History("map")
	if len(h) != 1 || h[0].Slot != 3 || h[0].Config[0] != 2 || h[0].CapacityObs != 120 {
		t.Errorf("restored history = %+v", h)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	d := New()
	if err := d.Restore(strings.NewReader("{not json")); err == nil {
		t.Error("garbage restore succeeded")
	}
	// Valid JSON with no records leaves a usable empty database.
	if err := d.Restore(strings.NewReader(`{"records": null}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Record{Operator: "op", Config: []float64{1}}); err != nil || d.Len() != 1 {
		t.Errorf("store unusable after minimal restore: len=%d err=%v", d.Len(), err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = d.Append(Record{Slot: i, Operator: "op", Config: []float64{float64(w)}})
				_ = d.History("op")
				_ = d.Len()
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 800 {
		t.Errorf("Len = %d, want 800", d.Len())
	}
}

func TestTaskGrid(t *testing.T) {
	g, err := TaskGrid(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 10 || g[0][0] != 1 || g[9][0] != 10 {
		t.Errorf("TaskGrid = %v", g)
	}
	if _, err := TaskGrid(0, 5); err == nil {
		t.Error("min 0 accepted")
	}
	if _, err := TaskGrid(5, 2); err == nil {
		t.Error("max < min accepted")
	}
}

func TestGrid2D(t *testing.T) {
	g, err := Grid2D(1, 2, 500, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 4 {
		t.Fatalf("Grid2D size = %d, want 4", len(g))
	}
	if g[0][0] != 1 || g[0][1] != 500 || g[3][0] != 2 || g[3][1] != 1000 {
		t.Errorf("Grid2D = %v", g)
	}
	if _, err := Grid2D(2, 1, 1, 2, 1); err == nil {
		t.Error("bad task bounds accepted")
	}
	if _, err := Grid2D(1, 2, 1, 2, 0); err == nil {
		t.Error("zero step accepted")
	}
}
