package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// cli runs the dragster CLI on args and returns what it wrote to stdout.
func cli(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := dragster(args, &out); err != nil {
		t.Fatalf("dragster %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes()
}

// golden compares got with testdata/name.
// Regenerate with: go test ./cmd/dragster -update
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s:\n%s", path, got)
	}
}

func TestRun(t *testing.T) {
	golden(t, "run_step.golden", cli(t, "run", "-profile", "step", "-period", "3", "-slots", "6", "-slotsec", "60"))
	golden(t, "run_ds2_cycle.golden", cli(t, "run", "-policy", "ds2", "-profile", "cycle", "-period", "2",
		"-slots", "5", "-budget", "12", "-engine", "storm", "-seed", "3"))
}

func TestLandscape(t *testing.T) {
	golden(t, "landscape_wordcount.golden", cli(t, "landscape", "-workload", "wordcount"))
	golden(t, "landscape_yahoo.golden", cli(t, "landscape", "-workload", "yahoo", "-rate", "low", "-budget", "30"))
}

// recordArgs is the small seeded scenario the trace tests record; ten
// 30 s slots cover the metrics-blackout scenario's three dark slots 6–8.
func recordArgs(extra ...string) []string {
	return append([]string{"trace", "record", "-slots", "10", "-slotsec", "30"}, extra...)
}

// TestTraceRecord pins the recorded traces that the other trace tests
// read, and checks that recording is deterministic: a second run with
// the same flags writes the same bytes through -out as the first did to
// stdout.
func TestTraceRecord(t *testing.T) {
	for _, tc := range []struct {
		golden string
		chaos  []string
	}{
		{"faultfree.jsonl", nil},
		{"blackout.jsonl", []string{"-chaos", "metrics-blackout"}},
	} {
		stdout := cli(t, recordArgs(tc.chaos...)...)
		out := filepath.Join(t.TempDir(), tc.golden)
		cli(t, recordArgs(append(tc.chaos, "-out", out)...)...)
		file, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, stdout) {
			t.Errorf("%s: two records with the same flags differ", tc.golden)
		}
		golden(t, tc.golden, stdout)
	}
}

// TestTraceSummarize: the metrics blackout's three dark slots show as
// skipped rounds.
func TestTraceSummarize(t *testing.T) {
	got := cli(t, "trace", "summarize", "testdata/blackout.jsonl")
	golden(t, "summarize_blackout.golden", got)
	if n := bytes.Count(got, []byte(" skipped ")); n != 3 {
		t.Errorf("summarize shows %d skipped rounds, want 3", n)
	}
}

// TestTraceDiff: against its fault-free twin, the blackout run's rounds
// differ only in their outcome, and diff stars exactly those rows.
func TestTraceDiff(t *testing.T) {
	got := cli(t, "trace", "diff", "testdata/faultfree.jsonl", "testdata/blackout.jsonl")
	golden(t, "diff.golden", got)
	_, rounds, _ := strings.Cut(string(got), "per-round regret (A vs B):\n")
	rounds, _, _ = strings.Cut(rounds, "\n\n")
	var starred []string
	for _, line := range strings.Split(rounds, "\n") {
		if strings.HasPrefix(line, "*") {
			starred = append(starred, strings.Fields(line)[1])
			if !strings.HasSuffix(line, "skipped") {
				t.Errorf("starred row is not a skipped round: %q", line)
			}
		}
	}
	if strings.Join(starred, ",") != "6,7,8" {
		t.Errorf("starred slots %v, want 6,7,8", starred)
	}
}

// TestTraceTablesAlign: in every summarize and diff table, each row's
// columns start where the header's do, however wide a float attribute or
// a phase key gets.
func TestTraceTablesAlign(t *testing.T) {
	summary := string(cli(t, "trace", "summarize", "testdata/blackout.jsonl"))
	diff := string(cli(t, "trace", "diff", "testdata/faultfree.jsonl", "testdata/blackout.jsonl"))
	for _, tc := range []struct {
		out    string
		header []string // the header's leading cells
	}{
		{summary, []string{"cat", "name"}},
		{summary, []string{"slot", "steady"}},
		{diff, []string{"phase", "countA"}},
		{diff, []string{"slot", "regretA"}},
	} {
		header, rows := table(t, tc.out, tc.header)
		starts := columnStarts(header)
		for _, row := range rows {
			r := []rune(row)
			for _, p := range starts {
				if p >= len(r) || r[p] == ' ' || (p > 0 && r[p-1] != ' ') {
					t.Errorf("row %q has no column starting at offset %d of header %q", row, p, header)
					break
				}
			}
		}
	}
}

// table returns the first line of out whose leading cells are header,
// with the rows that follow it up to the next blank line.
func table(t *testing.T, out string, header []string) (string, []string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) >= len(header) && slices.Equal(f[:len(header)], header) {
			rows := lines[i+1:]
			for j, row := range rows {
				if row == "" {
					rows = rows[:j]
					break
				}
			}
			if len(rows) == 0 {
				t.Fatalf("table %v has no rows", header)
			}
			return line, rows
		}
	}
	t.Fatalf("no table with header %v in:\n%s", header, out)
	return "", nil
}

// columnStarts returns the rune offsets at which header's cells begin.
func columnStarts(header string) []int {
	var starts []int
	r := []rune(header)
	for i, c := range r {
		if c != ' ' && (i == 0 || r[i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	return starts
}

func TestTraceChrome(t *testing.T) {
	got := cli(t, "trace", "chrome", "testdata/faultfree.jsonl")
	golden(t, "chrome_faultfree.json", got)
	out := filepath.Join(t.TempDir(), "trace.json")
	cli(t, "trace", "chrome", "-out", out, "testdata/faultfree.jsonl")
	if file, err := os.ReadFile(out); err != nil || !bytes.Equal(file, got) {
		t.Errorf("chrome -out wrote different bytes than stdout (%v)", err)
	}
}

func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing command"},
		{[]string{"help"}, "help requested"},
		{[]string{"gridsweep"}, `unknown command "gridsweep"`},
		{[]string{"trace", "replay"}, `unknown command "replay"`},
		{[]string{"run", "-policy", "fifo"}, `unknown policy "fifo"`},
		{[]string{"run", "-profile", "sometimes"}, `unknown profile "sometimes"`},
		{[]string{"run", "-workload", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"run", "extra"}, "run needs 0 arguments, got 1"},
		{[]string{"landscape", "-rate", "cycle"}, `landscape needs a constant rate (high|low), got "cycle"`},
		{recordArgs("-chaos", "nosuch"), "nosuch"},
		{recordArgs("-out", filepath.Join(t.TempDir(), "missing", "t.jsonl")), "no such file"},
		{[]string{"trace", "summarize"}, "summarize needs 1 trace file, got 0"},
		{[]string{"trace", "diff", "testdata/blackout.jsonl"}, "diff needs 2 trace files, got 1"},
		{[]string{"trace", "chrome", "testdata/nosuch.jsonl"}, "no such file"},
	} {
		err := dragster(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dragster %q = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
