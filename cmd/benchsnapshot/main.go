// Command benchsnapshot parses `go test -bench -benchmem` output from
// stdin and writes a machine-diffable JSON snapshot of ns/op, B/op and
// allocs/op per benchmark. `make bench-snapshot` pipes the GP/linalg/UCB
// micro-benchmarks through it into BENCH_gp.json and `make bench-e2e`
// pipes the end-to-end harness benchmarks into BENCH_e2e.json, so
// successive perf PRs can diff the trajectory instead of eyeballing
// terminal output.
//
// With -gate, the tool compares stdin against a committed snapshot
// instead of writing one: any benchmark whose ns/op exceeds the
// snapshot's by more than the tolerance factor — or that the snapshot
// lists but stdin lacks — fails the run with exit status 1. CI uses this
// as the perf-regression tripwire.
//
// With -flat, the tool reads no stdin at all: it checks scaling pairs
// *within* the committed snapshot. Each repeated -pair small=large flag
// names two benchmarks that differ only in problem scale (e.g. 1k vs 10k
// warm observations drawn from a fixed candidate grid); the large one
// must stay within the tolerance factor of the small one's ns/op. This is
// how CI proves the GP's per-round cost is flat in the horizon.
//
// Entries are emitted sorted by benchmark name (CPU-count suffixes like
// "-8" stripped) so the file is deterministic for a given machine. A
// benchmark repeated by `go test -count N` collapses to one entry holding
// the median of each column, so a snapshot or a gate judges the typical
// run rather than whichever ran last. The
// snapshot header records the host — GOMAXPROCS, NumCPU and the Go
// version, read by this process, which shares the bench run's environment
// when piped from it. -gate does not compare hosts, but prints both when
// it fails, since ns/op from different hosts are not comparable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkSelect200Obs-8   1522   791694 ns/op   10 B/op   1 allocs/op
//	BenchmarkRunRoundsPerSec  577    2145101 ns/op  1594 rounds/sec  12 B/op  3 allocs/op
//
// The -benchmem columns are optional so plain -bench output still
// parses, and custom b.ReportMetric columns may sit between ns/op and
// B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Host describes the machine a snapshot was taken on.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func currentHost() *Host {
	return &Host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// String renders the host for gate reports; snapshots written before
// hosts were recorded have none.
func (h *Host) String() string {
	if h == nil {
		return "not recorded"
	}
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s", h.GOMAXPROCS, h.NumCPU, h.GoVersion)
}

// Snapshot is the BENCH_gp.json / BENCH_e2e.json document.
type Snapshot struct {
	GeneratedBy string  `json:"generated_by"`
	Host        *Host   `json:"host,omitempty"`
	Benchmarks  []Entry `json:"benchmarks"`
}

// parseEntries reads `go test -bench` output and returns one entry per
// benchmark name, sorted by name, with repeats collapsed to medians.
func parseEntries(r io.Reader) ([]Entry, error) {
	runs := map[string][]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnapshot: iterations %q: %w", m[2], err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnapshot: ns/op %q: %w", m[3], err)
		}
		e := Entry{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			if e.BytesPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("benchsnapshot: B/op %q: %w", m[4], err)
			}
			if e.AllocsPerOp, err = strconv.ParseFloat(m[5], 64); err != nil {
				return nil, fmt.Errorf("benchsnapshot: allocs/op %q: %w", m[5], err)
			}
		}
		runs[e.Name] = append(runs[e.Name], e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchsnapshot: reading input: %w", err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("benchsnapshot: no benchmark lines found on stdin")
	}
	entries := make([]Entry, 0, len(runs))
	for name, rs := range runs {
		entries = append(entries, Entry{
			Name:        name,
			Iterations:  int64(median(rs, func(e Entry) float64 { return float64(e.Iterations) })),
			NsPerOp:     median(rs, func(e Entry) float64 { return e.NsPerOp }),
			BytesPerOp:  median(rs, func(e Entry) float64 { return e.BytesPerOp }),
			AllocsPerOp: median(rs, func(e Entry) float64 { return e.AllocsPerOp }),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// median returns the median of col over rs: the middle value, or the mean
// of the two middle values for an even count.
func median(rs []Entry, col func(Entry) float64) float64 {
	vs := make([]float64, len(rs))
	for i, e := range rs {
		vs[i] = col(e)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func run(out, label string, in io.Reader) error {
	entries, err := parseEntries(in)
	if err != nil {
		return err
	}
	doc := Snapshot{GeneratedBy: label, Host: currentHost(), Benchmarks: entries}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("benchsnapshot: marshal: %w", err)
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("benchsnapshot: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchsnapshot: wrote %d benchmarks to %s\n", len(entries), out)
	return nil
}

// gate compares stdin against the committed snapshot at gatePath: every
// snapshot benchmark must appear on stdin with ns/op ≤ tolerance × the
// snapshot value. Stdin benchmarks absent from the snapshot pass (new
// benchmarks gate only once committed), and B/op / allocs/op are
// informational — wall time is the contract.
func gate(gatePath string, tolerance float64, in io.Reader) error {
	if tolerance < 1 {
		return fmt.Errorf("benchsnapshot: -tolerance %g < 1 would reject unchanged results", tolerance)
	}
	data, err := os.ReadFile(gatePath)
	if err != nil {
		return fmt.Errorf("benchsnapshot: %w", err)
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchsnapshot: parsing %s: %w", gatePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("benchsnapshot: %s has no benchmarks", gatePath)
	}
	entries, err := parseEntries(in)
	if err != nil {
		return err
	}
	got := make(map[string]Entry, len(entries))
	for _, e := range entries {
		got[e.Name] = e
	}
	failures := 0
	for _, want := range base.Benchmarks {
		cur, ok := got[want.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s: in %s but missing from the bench run\n", want.Name, gatePath)
			failures++
			continue
		}
		ratio := cur.NsPerOp / want.NsPerOp
		status := "ok  "
		if cur.NsPerOp > want.NsPerOp*tolerance {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(os.Stderr, "%s %s: %.0f ns/op vs snapshot %.0f (%.2fx, limit %.2fx)\n",
			status, want.Name, cur.NsPerOp, want.NsPerOp, ratio, tolerance)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "snapshot host: %v\nthis host:     %v\n", base.Host, currentHost())
		return fmt.Errorf("benchsnapshot: %d benchmark(s) regressed past %.2fx of %s", failures, tolerance, gatePath)
	}
	fmt.Fprintf(os.Stderr, "benchsnapshot: %d benchmarks within %.2fx of %s\n", len(base.Benchmarks), tolerance, gatePath)
	return nil
}

// pairList collects repeated -pair small=large flags.
type pairList [][2]string

func (p *pairList) String() string { return fmt.Sprint(*p) }

func (p *pairList) Set(v string) error {
	i := strings.IndexByte(v, '=')
	if i <= 0 || i == len(v)-1 {
		return fmt.Errorf("want small=large, got %q", v)
	}
	*p = append(*p, [2]string{v[:i], v[i+1:]})
	return nil
}

// flat checks scaling pairs inside the committed snapshot: for each
// small=large pair, large's ns/op must be ≤ tolerance × small's. Unlike
// -gate this reads no fresh bench run — it pins a *structural* property
// of the recorded numbers, so regenerating the snapshot with a cost that
// grew in the horizon fails CI even though every individual benchmark
// merely "changed".
func flat(flatPath string, pairs pairList, tolerance float64) error {
	if len(pairs) == 0 {
		return fmt.Errorf("benchsnapshot: -flat needs at least one -pair small=large")
	}
	if tolerance < 1 {
		return fmt.Errorf("benchsnapshot: -tolerance %g < 1 would reject identical results", tolerance)
	}
	data, err := os.ReadFile(flatPath)
	if err != nil {
		return fmt.Errorf("benchsnapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("benchsnapshot: parsing %s: %w", flatPath, err)
	}
	byName := make(map[string]Entry, len(snap.Benchmarks))
	for _, e := range snap.Benchmarks {
		byName[e.Name] = e
	}
	failures := 0
	for _, p := range pairs {
		small, okS := byName[p[0]]
		large, okL := byName[p[1]]
		if !okS || !okL {
			fmt.Fprintf(os.Stderr, "FAIL %s=%s: missing from %s\n", p[0], p[1], flatPath)
			failures++
			continue
		}
		ratio := large.NsPerOp / small.NsPerOp
		status := "ok  "
		if large.NsPerOp > small.NsPerOp*tolerance {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(os.Stderr, "%s %s → %s: %.0f vs %.0f ns/op (%.2fx, limit %.2fx)\n",
			status, p[0], p[1], small.NsPerOp, large.NsPerOp, ratio, tolerance)
	}
	if failures > 0 {
		return fmt.Errorf("benchsnapshot: %d pair(s) in %s scale past %.2fx — per-op cost is not flat", failures, flatPath, tolerance)
	}
	fmt.Fprintf(os.Stderr, "benchsnapshot: %d pair(s) flat within %.2fx in %s\n", len(pairs), tolerance, flatPath)
	return nil
}

func main() {
	out := flag.String("out", "BENCH_gp.json", "output path (- for stdout)")
	label := flag.String("label", "make bench-snapshot", "generated_by stamp written into the snapshot")
	gatePath := flag.String("gate", "", "compare stdin against this snapshot instead of writing one; exit 1 on regression")
	flatPath := flag.String("flat", "", "check -pair scaling pairs inside this snapshot (no stdin); exit 1 if any pair is not flat")
	tolerance := flag.Float64("tolerance", 1.2, "with -gate or -flat, maximum allowed ns/op ratio")
	var pairs pairList
	flag.Var(&pairs, "pair", "with -flat, a small=large benchmark pair whose ns/op must match within the tolerance (repeatable)")
	flag.Parse()
	var err error
	switch {
	case *flatPath != "":
		err = flat(*flatPath, pairs, *tolerance)
	case *gatePath != "":
		err = gate(*gatePath, *tolerance, os.Stdin)
	default:
		err = run(*out, *label, os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
