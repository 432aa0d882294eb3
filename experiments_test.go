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

// TestExperimentsHarnessTableMatchesBench renders the "Harness
// throughput" table from the committed BENCH_e2e.json (ns/op, and
// rounds/sec to three significant figures) and fails on any row of
// EXPERIMENTS.md that differs, so the quoted numbers cannot drift from
// the snapshot they cite.
func TestExperimentsHarnessTableMatchesBench(t *testing.T) {
	raw, err := os.ReadFile("BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Benchmarks []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	ns := map[string]float64{}
	for _, b := range snap.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	var want []string
	for _, r := range harnessRows {
		v, ok := ns[r.name]
		if !ok {
			t.Fatalf("BENCH_e2e.json has no %s", r.name)
		}
		want = append(want, fmt.Sprintf("| `%s` | %s | %s | ≈ %s%s |",
			r.name, r.scale, commas(int64(math.Round(v))), commas(threeFigures(r.rounds*1e9/v)), r.unit))
	}

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Harness throughput")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Harness throughput" section`)
	}
	_, table, ok := strings.Cut(section, "| benchmark | scale | ns/op | rounds/sec |\n|---|---|---|---|\n")
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
