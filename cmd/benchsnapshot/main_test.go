package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: dragster/internal/gp
BenchmarkSelect200Obs-8   	    1522	    791694 ns/op	      10 B/op	       1 allocs/op
BenchmarkRunRoundsPerSec  	     577	   2145101 ns/op	      1594 rounds/sec	      12 B/op	       3 allocs/op
BenchmarkPlain-2          	    1000	      1500 ns/op
PASS
ok  	dragster/internal/gp	3.1s
`

func TestParseEntries(t *testing.T) {
	entries, err := parseEntries(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "BenchmarkPlain", Iterations: 1000, NsPerOp: 1500},
		{Name: "BenchmarkRunRoundsPerSec", Iterations: 577, NsPerOp: 2145101, BytesPerOp: 12, AllocsPerOp: 3},
		{Name: "BenchmarkSelect200Obs", Iterations: 1522, NsPerOp: 791694, BytesPerOp: 10, AllocsPerOp: 1},
	}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries %+v, want %d", len(entries), entries, len(want))
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
	if _, err := parseEntries(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}

// TestParseEntriesCollapsesRepeatsToMedian: `go test -count N` prints a
// benchmark N times; each column collapses to its own median.
func TestParseEntriesCollapsesRepeatsToMedian(t *testing.T) {
	in := `BenchmarkA-2   100   300 ns/op   64 B/op   2 allocs/op
BenchmarkB-2   10    50 ns/op
BenchmarkA-2   120   100 ns/op   32 B/op   1 allocs/op
BenchmarkB-2   30    70 ns/op
BenchmarkA-2   110   900 ns/op   96 B/op   3 allocs/op
`
	entries, err := parseEntries(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Name: "BenchmarkA", Iterations: 110, NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 2},
		{Name: "BenchmarkB", Iterations: 20, NsPerOp: 60}, // even count: mean of the middle two
	}
	if len(entries) != len(want) {
		t.Fatalf("got %+v, want %+v", entries, want)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
}

func writeSnapshot(t *testing.T, entries ...Entry) string {
	t.Helper()
	data, err := json.Marshal(Snapshot{GeneratedBy: "test", Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWritesSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run(path, "unit", strings.NewReader(benchOut+benchOut)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.GeneratedBy != "unit" || snap.Host == nil || len(snap.Benchmarks) != 3 {
		t.Errorf("snapshot = %+v, want label unit, a host and 3 deduplicated benchmarks", snap)
	}
}

func TestGate(t *testing.T) {
	snap := writeSnapshot(t,
		Entry{Name: "BenchmarkA", NsPerOp: 100},
		Entry{Name: "BenchmarkB", NsPerOp: 1000},
	)
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"within tolerance", "BenchmarkA-2 10 115 ns/op\nBenchmarkB-2 10 900 ns/op\nBenchmarkNew 10 1 ns/op\n", true},
		{"regressed", "BenchmarkA-2 10 130 ns/op\nBenchmarkB-2 10 900 ns/op\n", false},
		{"missing", "BenchmarkA-2 10 100 ns/op\n", false},
		// Only the median of the repeats counts: one slow run of three passes.
		{"median of repeats", "BenchmarkA 10 500 ns/op\nBenchmarkA 10 100 ns/op\nBenchmarkA 10 110 ns/op\nBenchmarkB 10 1000 ns/op\n", true},
		{"median regressed", "BenchmarkA 10 100 ns/op\nBenchmarkA 10 130 ns/op\nBenchmarkA 10 140 ns/op\nBenchmarkB 10 1000 ns/op\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := gate(snap, 1.2, strings.NewReader(tc.input))
			if tc.ok && err != nil {
				t.Errorf("gate failed: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("gate passed")
			}
		})
	}
	if err := gate(snap, 0.9, strings.NewReader("BenchmarkA 10 100 ns/op\n")); err == nil {
		t.Error("tolerance below 1 accepted")
	}
	if err := gate(writeSnapshot(t), 1.2, strings.NewReader("BenchmarkA 10 100 ns/op\n")); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestFlat(t *testing.T) {
	snap := writeSnapshot(t,
		Entry{Name: "BenchmarkSmall", NsPerOp: 100},
		Entry{Name: "BenchmarkLarge", NsPerOp: 115},
		Entry{Name: "BenchmarkHuge", NsPerOp: 500},
	)
	cases := []struct {
		name  string
		pairs pairList
		ok    bool
	}{
		{"flat", pairList{{"BenchmarkSmall", "BenchmarkLarge"}}, true},
		{"grows", pairList{{"BenchmarkSmall", "BenchmarkHuge"}}, false},
		{"missing", pairList{{"BenchmarkSmall", "BenchmarkGone"}}, false},
		{"no pairs", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := flat(snap, tc.pairs, 1.2)
			if tc.ok && err != nil {
				t.Errorf("flat failed: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("flat passed")
			}
		})
	}
	var p pairList
	if err := p.Set("a=b"); err != nil || len(p) != 1 || p[0] != [2]string{"a", "b"} {
		t.Errorf("Set(a=b) = %v, %v", p, err)
	}
	for _, bad := range []string{"ab", "=b", "a="} {
		if err := p.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}
