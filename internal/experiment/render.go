package experiment

import (
	"fmt"
	"io"
	"strings"
)

// RenderFig4 writes a text version of Fig. 4: the throughput landscape
// plus each policy's trajectory and outcome.
func RenderFig4(w io.Writer, r *Fig4Result) {
	title := "Fig. 4(a-c): WordCount search trajectories (no budget)"
	if r.Budget > 0 {
		title = fmt.Sprintf("Fig. 4(d-f): WordCount search trajectories (budget %d tasks)", r.Budget)
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "optimal config: map=%d shuffle=%d  throughput=%.0f tuples/s\n",
		r.Optimum.Tasks[0], r.Optimum.Tasks[1], r.Optimum.Throughput)
	fmt.Fprintln(w, "\nthroughput landscape (rows: map tasks 1..10, cols: shuffle tasks 1..10, ktuples/s):")
	for m := len(r.Heatmap) - 1; m >= 0; m-- {
		fmt.Fprintf(w, "  map=%2d |", m+1)
		for _, v := range r.Heatmap[m] {
			fmt.Fprintf(w, " %5.0f", v/1000)
		}
		fmt.Fprintln(w)
	}
	for _, name := range PolicyOrder {
		path := r.Paths[name]
		fmt.Fprintf(w, "\n%s (converged in %s, final %.0f tuples/s):\n  ",
			name, minutesOrNever(r.ConvergenceMinutes[name]), r.FinalThroughput[name])
		for i, p := range path {
			if i > 0 {
				fmt.Fprint(w, " → ")
			}
			fmt.Fprintf(w, "(%d,%d)", p.MapTasks, p.ShuffleTasks)
		}
		fmt.Fprintln(w)
	}
}

// RenderFig5 writes the convergence-time table of Fig. 5.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Fig. 5: convergence time across the 11 applications (minutes)")
	fmt.Fprintf(w, "%-17s %4s %10s %16s %14s %14s %12s\n",
		"application", "ops", "dhalion", "dragster-saddle", "dragster-ogd", "speedup(sdl)", "speedup(ogd)")
	for _, r := range rows {
		label := r.Workload
		if r.Rate != "" {
			label += "-" + r.Rate
		}
		fmt.Fprintf(w, "%-17s %4d %10s %16s %14s %14s %12s\n",
			label, r.Operators,
			minutesOrNever(r.Minutes["dhalion"]),
			minutesOrNever(r.Minutes["dragster-saddle"]),
			minutesOrNever(r.Minutes["dragster-ogd"]),
			speedupOrDash(r.SpeedupVsDhalion["dragster-saddle"]),
			speedupOrDash(r.SpeedupVsDhalion["dragster-ogd"]))
	}
}

// RenderFig6 writes the throughput-over-time series of Fig. 6.
func RenderFig6(w io.Writer, r *Fig6Result) {
	fmt.Fprintln(w, "Fig. 6: WordCount throughput under workload changes (ktuples/s per slot)")
	fmt.Fprintf(w, "static (1,1) mean throughput: %.1f ktuples/s — elastic gain %s\n",
		r.StaticMeanThroughput/1000, gainVsStatic(r))
	for _, name := range PolicyOrder {
		series := r.Throughput[name]
		fmt.Fprintf(w, "\n%s:\n", name)
		renderSparkline(w, series, 1000)
	}
}

func gainVsStatic(r *Fig6Result) string {
	best := 0.0
	for _, name := range PolicyOrder {
		var s float64
		for _, v := range r.Throughput[name] {
			s += v
		}
		if m := s / float64(len(r.Throughput[name])); m > best {
			best = m
		}
	}
	if r.StaticMeanThroughput <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fX", best/r.StaticMeanThroughput)
}

// RenderTable2 writes Table 2: per-phase convergence, processed tuples and
// cost per billion tuples.
func RenderTable2(w io.Writer, r *Fig6Result) {
	fmt.Fprintln(w, "Table 2: WordCount under workload changes (per phase)")
	nPhases := len(r.Phases[PolicyOrder[0]])
	header := fmt.Sprintf("%-42s", "phase (minutes):")
	for pi := 0; pi < nPhases; pi++ {
		ph := r.Phases[PolicyOrder[0]][pi]
		header += fmt.Sprintf(" %7s", fmt.Sprintf("%d-%d", int(float64(ph.StartSlot)*r.SlotMinutes), int(float64(ph.EndSlot)*r.SlotMinutes)))
	}
	fmt.Fprintln(w, header)
	row := func(label string, f func(PhaseStats) string, policy string) {
		line := fmt.Sprintf("%-42s", fmt.Sprintf("%s: %s", label, policy))
		for _, ph := range r.Phases[policy] {
			line += fmt.Sprintf(" %7s", f(ph))
		}
		fmt.Fprintln(w, line)
	}
	for _, policy := range PolicyOrder {
		row("conv. time (min)", func(p PhaseStats) string { return minutesOrNever(p.ConvergenceMinutes) }, policy)
	}
	for _, policy := range PolicyOrder {
		row("processed tuples (1e9)", func(p PhaseStats) string { return fmt.Sprintf("%.2f", p.Processed/1e9) }, policy)
	}
	for _, policy := range PolicyOrder {
		row("cost per 1e9 tuples ($)", func(p PhaseStats) string { return fmt.Sprintf("%.2f", p.CostPerBillion) }, policy)
	}
}

// RenderFig7 writes the Yahoo throughput series of Fig. 7.
func RenderFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintln(w, "Fig. 7: Yahoo benchmark throughput (ktuples/s per slot; load step mid-run)")
	for _, name := range PolicyOrder {
		fmt.Fprintf(w, "\n%s:\n", name)
		renderSparkline(w, r.Throughput[name], 1000)
	}
}

// RenderTable3 writes Table 3: Yahoo convergence, processing rate before
// convergence, and cost per billion tuples over the pre-step window.
func RenderTable3(w io.Writer, r *Fig7Result) {
	fmt.Fprintln(w, "Table 3: Yahoo benchmark (first phase)")
	fmt.Fprintf(w, "%-28s %10s %16s %14s\n", "", "dhalion", "dragster-saddle", "dragster-ogd")
	line := func(label string, f func(policy string) string) {
		fmt.Fprintf(w, "%-28s %10s %16s %14s\n", label,
			f("dhalion"), f("dragster-saddle"), f("dragster-ogd"))
	}
	line("convergence time (min)", func(p string) string {
		return minutesOrNever(r.Phases[p][0].ConvergenceMinutes)
	})
	line("proc. rate (1e5 tuples/s)", func(p string) string {
		return fmt.Sprintf("%.2f", r.Phases[p][0].MeanThroughput/1e5)
	})
	line("cost per 1e9 tuples ($)", func(p string) string {
		return fmt.Sprintf("%.2f", r.Phases[p][0].CostPerBillion)
	})
}

// RenderRegret writes the Theorem-1 validation summary.
func RenderRegret(w io.Writer, r *RegretResult) {
	fmt.Fprintf(w, "Theorem 1 validation over T=%d slots\n", r.T)
	fmt.Fprintf(w, "  dynamic regret Reg_T        = %.3e (bound %.3e)\n", r.Regret, r.RegretBound)
	fmt.Fprintf(w, "  dynamic fit Fit_T           = %.3e (bound %.3e)\n", r.Fit, r.FitBound)
	fmt.Fprintf(w, "  positive-part fit           = %.3e\n", r.PositiveFit)
	fmt.Fprintf(w, "  V(y*) optimum variation     = %.3e\n", r.VStar)
	fmt.Fprintf(w, "  sub-linearity ratio (reg)   = %.3f (≪1 ⇒ sub-linear)\n", r.SublinearityRegret)
	fmt.Fprintln(w, "  average regret Reg_t/t over time:")
	renderSparkline(w, r.AvgRegret, 1)
}

// renderSparkline prints a coarse text plot: one bar per sample bucket.
func renderSparkline(w io.Writer, series []float64, unit float64) {
	if len(series) == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	const width = 60
	bucket := (len(series) + width - 1) / width
	var maxV float64
	for _, v := range series {
		if v > maxV {
			maxV = v
		}
	}
	scale := maxV
	if scale <= 0 {
		scale = 1 // avoid dividing by zero on an all-zero series
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for i := 0; i < len(series); i += bucket {
		var s float64
		n := 0
		for j := i; j < i+bucket && j < len(series); j++ {
			s += series[j]
			n++
		}
		v := s / float64(n)
		g := int(v / scale * float64(len(glyphs)-1))
		if g < 0 {
			g = 0
		}
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		sb.WriteRune(glyphs[g])
	}
	fmt.Fprintf(w, "  |%s| peak %.1f (÷%g)\n", sb.String(), maxV/unit, unit)
}

func minutesOrNever(m float64) string {
	if m < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0f", m)
}

func speedupOrDash(s float64) string {
	if s <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fX", s)
}
