// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs the corresponding experiment at a
// reduced slot length (60 s instead of the paper's 600 s — the dynamics
// are identical, 10× faster) and reports the headline quantities of that
// table/figure as custom metrics, so `go test -bench . -benchmem` prints
// the reproduction next to the timing. `cmd/benchmark` runs the same
// experiments at full scale with rendered tables.
package dragster

import (
	"math"
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/experiment"
	"dragster/internal/flink"
	"dragster/internal/osp"
	"dragster/internal/tenant"
	"dragster/internal/workload"
)

const benchSlotSeconds = 60

// BenchmarkFig4NoBudget — Fig. 4(a–c): WordCount search trajectories
// without a budget. Reports convergence minutes per policy (scaled to the
// paper's 10-minute slots).
func BenchmarkFig4NoBudget(b *testing.B) {
	var r *experiment.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig4(0, 20, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	scale := 600.0 / benchSlotSeconds
	b.ReportMetric(r.ConvergenceMinutes["dhalion"]*scale, "dhalion-conv-min")
	b.ReportMetric(r.ConvergenceMinutes["dragster-saddle"]*scale, "saddle-conv-min")
	b.ReportMetric(r.ConvergenceMinutes["dragster-ogd"]*scale, "ogd-conv-min")
}

// BenchmarkFig4Budget — Fig. 4(d–f): the tight-budget WordCount run.
// Reports the final-throughput gap Dragster achieves over Dhalion (the
// paper's 64.7% figure).
func BenchmarkFig4Budget(b *testing.B) {
	var r *experiment.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig4(13, 20, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	gain := 100 * (r.FinalThroughput["dragster-saddle"]/r.FinalThroughput["dhalion"] - 1)
	b.ReportMetric(gain, "%gain-vs-dhalion")
	b.ReportMetric(r.FinalThroughput["dragster-saddle"]/1000, "saddle-ktuples/s")
	b.ReportMetric(r.FinalThroughput["dhalion"]/1000, "dhalion-ktuples/s")
}

// BenchmarkFig5Convergence — Fig. 5: convergence time across the workload
// suite. Reports the mean Dragster-saddle speed-up over Dhalion across
// the workloads where both converge.
func BenchmarkFig5Convergence(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Fig5(40, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum, n float64
	for _, row := range rows {
		if s, ok := row.SpeedupVsDhalion["dragster-saddle"]; ok && s > 0 {
			sum += s
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/n, "mean-saddle-speedup-x")
	}
	b.ReportMetric(n, "workloads-compared")
}

// BenchmarkFig6Tracking — Fig. 6: WordCount under recurring load changes.
// Reports the elastic gain over a static configuration (the paper's
// "5X–6X improvement despite the 5% checkpoint cost").
func BenchmarkFig6Tracking(b *testing.B) {
	var r *experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig6(60, 12, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	var saddleMean float64
	for _, v := range r.Throughput["dragster-saddle"] {
		saddleMean += v
	}
	saddleMean /= float64(len(r.Throughput["dragster-saddle"]))
	b.ReportMetric(saddleMean/r.StaticMeanThroughput, "elastic-gain-x")
}

// BenchmarkTable2 — Table 2: per-phase goodput and cost under recurring
// load changes. Reports Dragster's low-phase cost savings versus Dhalion
// (paper: 14.6–15.6%) and the tuple-processing gain on the first high
// phase (paper: 20.0–25.8%).
func BenchmarkTable2(b *testing.B) {
	var r *experiment.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig6(60, 12, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	var dh, sd, n float64
	for pi := range r.Phases["dhalion"] {
		if pi%2 == 1 { // low phases
			dh += r.Phases["dhalion"][pi].CostPerBillion
			sd += r.Phases["dragster-saddle"][pi].CostPerBillion
			n++
		}
	}
	if n > 0 && dh > 0 {
		b.ReportMetric(100*(1-sd/dh), "%low-phase-cost-savings")
	}
	gain := 100 * (r.Phases["dragster-saddle"][0].Processed/r.Phases["dhalion"][0].Processed - 1)
	b.ReportMetric(gain, "%goodput-gain-phase0")
}

// BenchmarkFig7Yahoo — Fig. 7: the Yahoo benchmark with a mid-run load
// step. Reports the convergence speed-up after the step.
func BenchmarkFig7Yahoo(b *testing.B) {
	var r *experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig7(60, 30, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	scale := 600.0 / benchSlotSeconds
	dh := r.Phases["dhalion"][1].ConvergenceMinutes
	sd := r.Phases["dragster-saddle"][1].ConvergenceMinutes
	b.ReportMetric(dh*scale, "dhalion-restep-min")
	b.ReportMetric(sd*scale, "saddle-restep-min")
	if dh > 0 && sd > 0 {
		b.ReportMetric(dh/sd, "restep-speedup-x")
	}
}

// BenchmarkTable3 — Table 3: Yahoo first-phase processing rate and cost.
// Reports the relative goodput gain and cost savings of Dragster-saddle
// over Dhalion (paper: +11.2–14.9% tuples, 4.2% cost savings).
func BenchmarkTable3(b *testing.B) {
	var r *experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Fig7(60, 30, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	dh := r.Phases["dhalion"][0]
	sd := r.Phases["dragster-saddle"][0]
	b.ReportMetric(100*(sd.MeanThroughput/dh.MeanThroughput-1), "%proc-rate-gain")
	if dh.CostPerBillion > 0 && !math.IsInf(dh.CostPerBillion, 0) {
		b.ReportMetric(100*(1-sd.CostPerBillion/dh.CostPerBillion), "%cost-savings")
	}
}

// BenchmarkRegretSublinear — Theorem 1 validation: dynamic regret and fit
// growth over a 120-slot run. Reports the sub-linearity ratio (average
// regret late/early; ≪1 means sub-linear) and the bound slack.
func BenchmarkRegretSublinear(b *testing.B) {
	spec, err := workload.WordCount()
	if err != nil {
		b.Fatal(err)
	}
	var r *experiment.RegretResult
	for i := 0; i < b.N; i++ {
		r, err = experiment.RegretRun(spec, osp.SaddlePoint, 120, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SublinearityRegret, "sublinearity-ratio")
	if r.RegretBound > 0 {
		b.ReportMetric(r.Regret/r.RegretBound, "regret/bound")
	}
	if r.FitBound > 0 {
		b.ReportMetric(r.PositiveFit/r.FitBound, "fit/bound")
	}
}

// BenchmarkTheorem2LearnedH — Theorem 2 validation: Dragster whose
// controller only has throughput functions learned online from 2×-wrong
// priors versus the exact-h controller. Reports the regret ratio (Theorem
// 2 predicts the same order) and the selectivity estimation error.
func BenchmarkTheorem2LearnedH(b *testing.B) {
	var r *experiment.Theorem2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.Theorem2Run(0.5, 25, benchSlotSeconds, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.ExactRegret > 0 {
		b.ReportMetric(r.LearnedRegret/r.ExactRegret, "regret-ratio-learned/exact")
	}
	b.ReportMetric(math.Abs(r.LearnedK-r.TrueK), "selectivity-error")
}

// BenchmarkLatencyBound — the bounded-buffer/low-latency claim: mean
// Little's-law end-to-end latency during the WordCount ramp under each
// policy.
func BenchmarkLatencyBound(b *testing.B) {
	spec, err := workload.WordCount()
	if err != nil {
		b.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		b.Fatal(err)
	}
	var dh, sd float64
	for i := 0; i < b.N; i++ {
		run := func(f experiment.PolicyFactory) float64 {
			res, err := experiment.Run(experiment.Scenario{
				Spec: spec, Rates: rates, Slots: 20, SlotSeconds: benchSlotSeconds, Seed: int64(i + 1),
			}, f)
			if err != nil {
				b.Fatal(err)
			}
			return experiment.MeanLatency(res)
		}
		dh = run(experiment.DhalionPolicy())
		sd = run(experiment.DragsterSaddle())
	}
	b.ReportMetric(dh, "dhalion-latency-s")
	b.ReportMetric(sd, "saddle-latency-s")
}

// BenchmarkAblationAcquisition — design-choice ablation (Remark 1): the
// extended target-tracking acquisition versus conventional GP-UCB on a
// down-scaling scenario. Reports the cost premium conventional UCB pays.
func BenchmarkAblationAcquisition(b *testing.B) {
	spec, err := workload.WordCount()
	if err != nil {
		b.Fatal(err)
	}
	cyc, err := workload.Cycle(10, spec.HighRates, spec.LowRates)
	if err != nil {
		b.Fatal(err)
	}
	var extCost, convCost float64
	for i := 0; i < b.N; i++ {
		run := func(f experiment.PolicyFactory) float64 {
			res, err := experiment.Run(experiment.Scenario{
				Spec: spec, Rates: cyc, Slots: 30, SlotSeconds: benchSlotSeconds, Seed: int64(i + 1),
			}, f)
			if err != nil {
				b.Fatal(err)
			}
			return experiment.CostPerBillion(res)
		}
		extCost = run(experiment.DragsterSaddle())
		convCost = run(experiment.DragsterConventionalUCB())
	}
	if extCost > 0 {
		b.ReportMetric(100*(convCost/extCost-1), "%conventional-cost-premium")
	}
}

// BenchmarkAblationVerticalScaling — extension ablation: the 1-D task
// grid versus the full 2-D (tasks × per-pod CPU) configuration vector of
// the paper's model, on the resource-aware WordCount at the low rate.
// Reports cost per billion tuples under each space.
func BenchmarkAblationVerticalScaling(b *testing.B) {
	spec, err := workload.WordCount2D()
	if err != nil {
		b.Fatal(err)
	}
	rates, err := workload.Constant(spec.LowRates)
	if err != nil {
		b.Fatal(err)
	}
	var c1, c2 float64
	for i := 0; i < b.N; i++ {
		run := func(vertical bool) float64 {
			res, err := experiment.Run(experiment.Scenario{
				Spec: spec, Rates: rates, Slots: 30, SlotSeconds: benchSlotSeconds,
				Seed: int64(i + 1), VerticalScaling: vertical,
			}, experiment.DragsterSaddle())
			if err != nil {
				b.Fatal(err)
			}
			return experiment.CostPerBillion(res)
		}
		c1 = run(false)
		c2 = run(true)
	}
	b.ReportMetric(c1, "tasks-only-$/1e9")
	b.ReportMetric(c2, "tasks+cpu-$/1e9")
}

// BenchmarkStormSubstrate — Dragster on the Storm substrate (§3.2:
// rebalance instead of savepoints). Reports the goodput advantage of the
// cheaper 10 s reconfiguration over Flink's 30 s savepoint during the
// search phase.
func BenchmarkStormSubstrate(b *testing.B) {
	spec, err := workload.WordCount()
	if err != nil {
		b.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		b.Fatal(err)
	}
	var flinkT, stormT float64
	for i := 0; i < b.N; i++ {
		run := func(engine string) float64 {
			res, err := experiment.Run(experiment.Scenario{
				Spec: spec, Rates: rates, Slots: 12, SlotSeconds: benchSlotSeconds,
				Seed: int64(i + 1), StreamEngine: engine,
			}, experiment.DragsterSaddle())
			if err != nil {
				b.Fatal(err)
			}
			return experiment.TotalProcessed(res)
		}
		flinkT = run("flink")
		stormT = run("storm")
	}
	if flinkT > 0 {
		b.ReportMetric(100*(stormT/flinkT-1), "%goodput-gain-vs-flink")
	}
}

// BenchmarkControllerDecide — the per-slot cost of one full Algorithm 2
// pass (dual update, saddle solve, GP observations and refits,
// acquisition) on the six-operator Yahoo application, the heaviest case
// in the suite, timed alone. One tenant runs 10 slots of 30 s at the high
// rates to warm the controller's GPs and duals; each iteration then
// decides that tenant's last snapshot again under the next slot number,
// so the controller takes it as fresh instead of skipping it as stale.
func BenchmarkControllerDecide(b *testing.B) { benchControllerDecide(b, 0) }

// BenchmarkControllerDecideBudget is BenchmarkControllerDecide under a
// 14-task budget, so every decision also runs the budget projection Π_X:
// ProjectTasks' trims and rebalanceUnderBudget's trial moves, each read
// of which lands on a grid point of some operator's GP.
func BenchmarkControllerDecideBudget(b *testing.B) { benchControllerDecide(b, 14) }

// benchControllerDecide times DecideDetailed on a Yahoo controller with
// the given task budget (0 = none), warmed as BenchmarkControllerDecide
// describes.
func benchControllerDecide(b *testing.B, budget int) {
	spec, err := workload.Yahoo()
	if err != nil {
		b.Fatal(err)
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		b.Fatal(err)
	}
	k8s := cluster.New()
	if err := k8s.AddNodes("node", (spec.Graph.NumOperators()*spec.MaxTasks+1)/4+1, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		b.Fatal(err)
	}
	session, err := flink.NewSession(k8s, flink.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	const slots = 10
	policy, err := experiment.DragsterSaddle()(&experiment.Scenario{Spec: spec, Rates: rates, Slots: slots, SlotSeconds: 30, Seed: 1, TaskBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	t, err := tenant.New(tenant.Config{Name: spec.Name, Workload: spec, Rates: rates, Horizon: slots, Seed: 1, Session: session, Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	for slot := 0; slot < slots; slot++ {
		if _, _, err := t.RunSlot(30, true); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Collect(); err != nil {
			b.Fatal(err)
		}
		if err := t.Decide(); err != nil {
			b.Fatal(err)
		}
		if err := t.Apply(); err != nil {
			b.Fatal(err)
		}
	}
	snap := *t.Snapshot()
	ctrl := t.Controller()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Slot++
		if _, _, _, err := ctrl.DecideDetailed(&snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := ctrl.StaleSkips(); n != 0 {
		b.Fatalf("%d decisions skipped as stale", n)
	}
}
