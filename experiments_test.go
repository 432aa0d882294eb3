package dragster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// harnessRows are the rows of EXPERIMENTS.md's "Harness throughput"
// table: each benchmark with its scale and the rounds one op runs.
var harnessRows = []struct {
	name, scale string
	rounds      float64
	unit        string
}{
	{"BenchmarkRunRoundsPerSec", "1 run × 6 slots", 6, ""},
	{"BenchmarkRepeat8Seeds/workers=1", "8 seeds × 4 slots", 32, ""},
	{"BenchmarkRepeat8Seeds/workers=4", "8 seeds × 4 slots", 32, ""},
	{"BenchmarkFleetRound10Jobs", "10 tenants × 1 round", 10, " job-rounds"},
	{"BenchmarkFleetRound100Jobs", "100 tenants × 1 round (rounds 1–16)", 100, " job-rounds"},
	{"BenchmarkFleetRoundWarmLate100Jobs", "100 tenants × 1 round (rounds 241–256)", 100, " job-rounds"},
	{"BenchmarkFleetRound1000Jobs", "1,000 tenants × 1 round", 1000, " job-rounds"},
}

// commas renders a non-negative integer with thousands separators.
func commas(n int64) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// threeFigures rounds v to three significant figures.
func threeFigures(v float64) int64 {
	scale := math.Pow(10, math.Floor(math.Log10(v))-2)
	return int64(math.Round(v/scale) * scale)
}

// benchRow is one benchmark of a committed BENCH_*.json snapshot.
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// e2eSnapshot reads the committed BENCH_e2e.json, keyed by benchmark.
func e2eSnapshot(t *testing.T) map[string]benchRow {
	t.Helper()
	raw, err := os.ReadFile("BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Benchmarks []benchRow `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	rows := map[string]benchRow{}
	for _, b := range snap.Benchmarks {
		rows[b.Name] = b
	}
	return rows
}

// harnessSection returns EXPERIMENTS.md's "Harness throughput" section.
func harnessSection(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Harness throughput")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Harness throughput" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// TestExperimentsHarnessTableMatchesBench renders the "Harness
// throughput" table from the committed BENCH_e2e.json (ns/op, and
// rounds/sec to three significant figures) and fails on any row of
// EXPERIMENTS.md that differs, so the quoted numbers cannot drift from
// the snapshot they cite.
func TestExperimentsHarnessTableMatchesBench(t *testing.T) {
	rows := e2eSnapshot(t)
	var want []string
	for _, r := range harnessRows {
		b, ok := rows[r.name]
		if !ok {
			t.Fatalf("BENCH_e2e.json has no %s", r.name)
		}
		v := b.NsPerOp
		want = append(want, fmt.Sprintf("| `%s` | %s | %s | ≈ %s%s |",
			r.name, r.scale, commas(int64(math.Round(v))), commas(threeFigures(r.rounds*1e9/v)), r.unit))
	}

	_, table, ok := strings.Cut(harnessSection(t), "| benchmark | scale | ns/op | rounds/sec |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal("the Harness throughput section has no benchmark table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	got := strings.Split(table, "\n")
	if len(got) != len(want) {
		t.Fatalf("the table has %d rows, want %d:\n%s", len(got), len(want), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d reads\n%s\nBENCH_e2e.json renders\n%s", i+1, got[i], want[i])
		}
	}
}

// TestExperimentsHarnessProseMatchesBench renders the figures the prose
// beside the "Harness throughput" table quotes from BENCH_e2e.json — the
// `workers=4` time as a multiple of `workers=1`, a 6-slot run's
// allocations and kilobytes, and a 1,000-tenant round in milliseconds —
// and fails unless the section states each, line breaks read as spaces.
func TestExperimentsHarnessProseMatchesBench(t *testing.T) {
	rows := e2eSnapshot(t)
	row := func(name string) benchRow {
		b, ok := rows[name]
		if !ok {
			t.Fatalf("BENCH_e2e.json has no %s", name)
		}
		return b
	}
	run := row("BenchmarkRunRoundsPerSec")
	want := []string{
		fmt.Sprintf("it runs at %.2f× of `workers=1`",
			row("BenchmarkRepeat8Seeds/workers=4").NsPerOp/row("BenchmarkRepeat8Seeds/workers=1").NsPerOp),
		fmt.Sprintf("a full 6-slot run costs %.0f allocations (%.0f KB)", run.AllocsPerOp, run.BytesPerOp/1000),
		fmt.Sprintf("admission-order reduction; %.1f ms per round", row("BenchmarkFleetRound1000Jobs").NsPerOp/1e6),
	}
	prose := strings.Join(strings.Fields(harnessSection(t)), " ")
	for _, w := range want {
		if !strings.Contains(prose, w) {
			t.Errorf("the Harness throughput section does not state %q, which BENCH_e2e.json renders", w)
		}
	}
}
