package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"dragster/internal/chaos"
	"dragster/internal/experiment"
	"dragster/internal/telemetry"
)

func cmdTrace(args []string, stdout io.Writer) error {
	return dispatch(args, stdout, map[string]command{
		"record":    cmdRecord,
		"summarize": cmdSummarize,
		"diff":      cmdDiff,
		"chrome":    cmdChrome,
	})
}

// cmdRecord runs one scenario with a tracer installed and writes the
// JSONL trace to -out ("-" = stdout).
func cmdRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	var sf scenarioFlags
	sf.register(fs, 60)
	out := fs.String("out", "-", "output JSONL path (- = stdout)")
	chaosName := fs.String("chaos", "", "named chaos scenario (empty = fault-free)")
	if err := parse(fs, args, 0, "arguments"); err != nil {
		return err
	}
	sc, factory, err := sf.scenario()
	if err != nil {
		return err
	}
	if *chaosName != "" {
		if sc.Chaos, err = chaos.ByName(*chaosName); err != nil {
			return err
		}
	}
	sc.Tracer = telemetry.NewTracer()
	sc.Tracer.SetMetrics(telemetry.NewRegistry())
	if _, err := experiment.Run(sc, factory); err != nil {
		return err
	}
	return writeOut(*out, stdout, sc.Tracer.WriteJSONL)
}

// writeOut hands write the path's file, or stdout for "-", and reports
// the file's close error too: a failed flush on close leaves a truncated
// output.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

func readTrace(path string) (*telemetry.TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJSONL(f)
}

// cmdSummarize prints the time-in-phase table, the per-round regret
// timeline, and the metrics snapshot of one trace.
func cmdSummarize(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	if err := parse(fs, args, 1, "trace file"); err != nil {
		return err
	}
	tf, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans, %d metrics\n\n", len(tf.Spans), len(tf.Metrics))

	fmt.Fprintln(w, "time in phase (sim seconds):")
	tw := newTable(w)
	fmt.Fprintln(tw, "\tcat\tname\tcount\tseconds")
	for _, row := range telemetry.TimeInPhase(tf.Spans) {
		fmt.Fprintf(tw, "\t%s\t%s\t%d\t%d\n", row.Cat, row.Name, row.Count, row.Seconds)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	rounds := roundTimeline(tf.Spans)
	if len(rounds) > 0 {
		fmt.Fprintln(w, "\nper-round regret timeline:")
		fmt.Fprintln(tw, "\tslot\tsteady\toptimal\tregret\toutcome\ttasks")
		for _, r := range rounds {
			fmt.Fprintf(tw, "\t%d\t%s\t%s\t%s\t%s\t%s\n", r.slot, r.steady, r.optimal, r.regret, orDash(r.outcome), r.tasks)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(tf.Metrics) > 0 {
		fmt.Fprintln(w, "\nmetrics:")
		for _, m := range tf.Metrics {
			switch m.Kind {
			case "histogram":
				fmt.Fprintf(tw, "\t%s\tcount=%d sum=%g buckets=%v bounds=%v\n",
					m.Name, m.Count, m.Sum, m.Buckets, m.Bounds)
			default:
				fmt.Fprintf(tw, "\t%s\t%g\n", m.Name, m.Value)
			}
		}
	}
	return tw.Flush()
}

// newTable returns a writer that lays tab-separated cells out in
// left-aligned columns two spaces apart, so a wide cell (a shortest
// round-trip float, a long phase key) widens its column instead of
// shifting the rest of its row. A row that starts with an empty cell is
// indented by the two-space gap. Flush ends the table.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
}

// roundRow is one "experiment/round" span flattened for display. outcome
// is "skipped" for a round a metrics blackout or stale repeat kept from
// deciding, empty otherwise.
type roundRow struct {
	slot                                    int
	steady, optimal, regret, tasks, outcome string
}

func roundTimeline(spans []telemetry.SpanRecord) []roundRow {
	var out []roundRow
	for _, sp := range spans {
		if sp.Cat != "experiment" || sp.Name != "round" {
			continue
		}
		r := roundRow{slot: sp.Slot}
		r.steady, _ = sp.AttrValue("steady")
		r.optimal, _ = sp.AttrValue("optimal")
		r.regret, _ = sp.AttrValue("regret")
		r.tasks, _ = sp.AttrValue("tasks")
		r.outcome, _ = sp.AttrValue("outcome")
		out = append(out, r)
	}
	return out
}

// cmdDiff compares two traces: span-volume and time-in-phase per (cat,
// name), the per-round regret timelines, and the metric snapshots.
func cmdDiff(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := parse(fs, args, 2, "trace files"); err != nil {
		return err
	}
	a, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d spans)\nB: %s (%d spans)\n\n",
		fs.Arg(0), len(a.Spans), fs.Arg(1), len(b.Spans))

	if err := diffPhases(w, a.Spans, b.Spans); err != nil {
		return err
	}
	if err := diffRounds(w, a.Spans, b.Spans); err != nil {
		return err
	}
	return diffMetrics(w, a.Metrics, b.Metrics)
}

// pairUp pairs a's and b's entries by key: a's keys in order, then the
// keys only b has. The side that lacks a key is nil.
func pairUp[T any, K comparable](a, b []T, key func(T) K) [][2]*T {
	var pairs [][2]*T
	at := make(map[K]int)
	for side, list := range [2][]T{a, b} {
		for i := range list {
			j, ok := at[key(list[i])]
			if !ok {
				j = len(pairs)
				at[key(list[i])] = j
				pairs = append(pairs, [2]*T{})
			}
			pairs[j][side] = &list[i]
		}
	}
	return pairs
}

// either returns the pair's A side, or its B side when A lacks the key.
func either[T any](pair [2]*T) *T {
	if pair[0] != nil {
		return pair[0]
	}
	return pair[1]
}

// diffPhases, diffRounds and diffMetrics each write one table whose rows
// start with a marker cell, "*" when A and B differ.
func diffPhases(w io.Writer, a, b []telemetry.SpanRecord) error {
	key := func(p telemetry.PhaseDuration) [2]string { return [2]string{p.Cat, p.Name} }
	tw := newTable(w)
	fmt.Fprintln(tw, "\tphase\tcountA\tcountB\tsecondsA\tsecondsB\tΔsec")
	for _, pair := range pairUp(telemetry.TimeInPhase(a), telemetry.TimeInPhase(b), key) {
		var row [2]telemetry.PhaseDuration
		for i, p := range pair {
			if p != nil {
				row[i] = *p
			}
		}
		dSec := row[1].Seconds - row[0].Seconds
		marker := " "
		if row[0].Count != row[1].Count || dSec != 0 {
			marker = "*"
		}
		named := either(pair)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%+d\n",
			marker, named.Cat+"/"+named.Name, row[0].Count, row[1].Count,
			row[0].Seconds, row[1].Seconds, dSec)
	}
	return tw.Flush()
}

func diffRounds(w io.Writer, a, b []telemetry.SpanRecord) error {
	ra, rb := roundTimeline(a), roundTimeline(b)
	n := max(len(ra), len(rb))
	if n == 0 {
		return nil
	}
	fmt.Fprintln(w, "\nper-round regret (A vs B):")
	tw := newTable(w)
	fmt.Fprintln(tw, "\tslot\tregretA\tregretB\ttasksA\ttasksB\toutcomeA\toutcomeB")
	for i := 0; i < n; i++ {
		var av, bv roundRow
		if i < len(ra) {
			av = ra[i]
		}
		if i < len(rb) {
			bv = rb[i]
		}
		marker := " "
		if av.regret != bv.regret || av.tasks != bv.tasks || av.outcome != bv.outcome {
			marker = "*"
		}
		slot := av.slot
		if i >= len(ra) {
			slot = bv.slot
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			marker, slot, orDash(av.regret), orDash(bv.regret), orDash(av.tasks), orDash(bv.tasks),
			orDash(av.outcome), orDash(bv.outcome))
	}
	return tw.Flush()
}

func diffMetrics(w io.Writer, a, b []telemetry.MetricRecord) error {
	key := func(m telemetry.MetricRecord) [2]string { return [2]string{m.Kind, m.Name} }
	pairs := pairUp(a, b, key)
	if len(pairs) == 0 {
		return nil
	}
	fmt.Fprintln(w, "\nmetrics (A vs B):")
	tw := newTable(w)
	for _, pair := range pairs {
		var val [2]string
		for i, m := range pair {
			val[i] = metricValue(m)
		}
		marker := "*"
		if val[0] == val[1] {
			marker = " "
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", marker, either(pair).Name, val[0], val[1])
	}
	return tw.Flush()
}

// metricValue renders a metric for diff, "-" when the trace lacks it.
func metricValue(m *telemetry.MetricRecord) string {
	if m == nil {
		return "-"
	}
	if m.Kind == "histogram" {
		return fmt.Sprintf("n=%d sum=%g", m.Count, m.Sum)
	}
	return fmt.Sprintf("%g", m.Value)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// cmdChrome converts a JSONL trace to the Chrome trace_event format.
func cmdChrome(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chrome", flag.ContinueOnError)
	out := fs.String("out", "-", "output path (- = stdout)")
	if err := parse(fs, args, 1, "trace file"); err != nil {
		return err
	}
	tf, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeOut(*out, stdout, func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, tf.Spans)
	})
}
