package experiment

import (
	"fmt"
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/workload"
)

func wordcount(t testing.TB) *workload.Spec {
	t.Helper()
	s, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptimalConfigWordCountHigh(t *testing.T) {
	spec := wordcount(t)
	opt, err := OptimalConfig(spec, spec.HighRates, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Demand: map needs ≥100k output/s (rate 50k × sel 2) → 9 tasks;
	// shuffle needs ≥100k → 7 tasks. Throughput = 100k.
	if opt.Tasks[0] != 9 || opt.Tasks[1] != 7 {
		t.Errorf("optimal tasks = %v, want [9 7]", opt.Tasks)
	}
	if math.Abs(opt.Throughput-100000) > 1 {
		t.Errorf("optimal throughput = %v, want 100000", opt.Throughput)
	}
}

func TestOptimalConfigMatchesExhaustive(t *testing.T) {
	spec := wordcount(t)
	for _, rates := range [][]float64{spec.HighRates, spec.LowRates} {
		greedy, err := OptimalConfig(spec, rates, 0)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := exhaustiveOptimum(spec, rates, spec.MaxTasks*spec.Graph.NumOperators())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(greedy.Throughput-exh.Throughput) > 1e-6 {
			t.Errorf("rates %v: greedy %v (tasks %v) vs exhaustive %v (tasks %v)",
				rates, greedy.Throughput, greedy.Tasks, exh.Throughput, exh.Tasks)
		}
		if greedy.TotalTasks > exh.TotalTasks {
			t.Errorf("greedy uses more tasks (%d) than exhaustive optimum (%d)", greedy.TotalTasks, exh.TotalTasks)
		}
	}
}

func TestOptimalConfigBudget(t *testing.T) {
	spec := wordcount(t)
	opt, err := OptimalConfig(spec, spec.HighRates, 13)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalTasks > 13 {
		t.Errorf("budgeted optimum uses %d tasks", opt.TotalTasks)
	}
	unb, err := OptimalConfig(spec, spec.HighRates, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Throughput >= unb.Throughput {
		t.Errorf("budget 13 should cost throughput: %v vs %v", opt.Throughput, unb.Throughput)
	}
	if _, err := OptimalConfig(spec, spec.HighRates, 1); err == nil {
		t.Error("infeasible budget accepted")
	}
	if _, err := OptimalConfig(spec, []float64{1, 2}, 0); err == nil {
		t.Error("wrong rate count accepted")
	}
}

// TestOptimalConfigRefusesHugeBudgetedGrid: a budgeted search beyond
// 10⁶ grid cells (here a 7-operator chain at 10 tasks each, 10⁷ cells)
// is an error, not an enumeration.
func TestOptimalConfigRefusesHugeBudgetedGrid(t *testing.T) {
	b := dag.NewBuilder()
	nodes := []dag.NodeID{b.Source("src")}
	hs := []dag.ThroughputFunc{nil}
	for i := 0; i < 7; i++ {
		nodes = append(nodes, b.Operator(fmt.Sprintf("op%d", i)))
		hs = append(hs, dag.Selectivity(1))
	}
	nodes = append(nodes, b.Sink("sink"))
	if err := b.Chain(nodes, hs); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := &workload.Spec{Name: "chain7", Graph: g, MaxTasks: 10}
	if _, err := OptimalConfig(spec, []float64{100}, 30); err == nil {
		t.Fatal("budgeted search over a 10⁷-cell grid accepted")
	}
}

// shortScenario keeps integration-test runtimes low: 1-minute slots.
func shortScenario(t testing.TB, spec *workload.Spec, slots int, rates workload.RateFunc) Scenario {
	t.Helper()
	return Scenario{
		Spec:        spec,
		Rates:       rates,
		Slots:       slots,
		SlotSeconds: 60,
		Seed:        7,
	}
}

func TestRunDragsterConvergesOnWordCount(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(shortScenario(t, spec, 25, rates), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "dragster-saddle-point" || res.Workload != "wordcount" {
		t.Errorf("result labels: %s / %s", res.Policy, res.Workload)
	}
	if len(res.Trace) != 25 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	opt := res.OptimaByPhase[0]
	final := FinalSteadyThroughput(res)
	if final < NearOptimalFraction*opt.Throughput {
		t.Errorf("dragster did not converge: final steady %v vs optimal %v (tasks %v)",
			final, opt.Throughput, res.Trace[len(res.Trace)-1].Tasks)
	}
}

func TestRunDhalionConvergesSlower(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	sc := shortScenario(t, spec, 30, rates)
	dh, err := Run(sc, DhalionPolicy())
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Run(sc, DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	dhConv, err := ConvergenceMinutes(dh)
	if err != nil {
		t.Fatal(err)
	}
	drConv, err := ConvergenceMinutes(dr)
	if err != nil {
		t.Fatal(err)
	}
	if drConv < 0 {
		t.Fatalf("dragster never converged (dhalion: %v)", dhConv)
	}
	if dhConv > 0 && drConv >= dhConv {
		t.Errorf("dragster (%v min) not faster than dhalion (%v min)", drConv, dhConv)
	}
}

func TestPhasesAccounting(t *testing.T) {
	spec := wordcount(t)
	cyc, err := workload.Cycle(10, spec.HighRates, spec.LowRates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(shortScenario(t, spec, 20, cyc), DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Phases(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph) != 2 {
		t.Fatalf("phases = %d, want 2", len(ph))
	}
	if ph[0].StartSlot != 0 || ph[0].EndSlot != 10 || ph[1].StartSlot != 10 {
		t.Errorf("phase bounds wrong: %+v", ph)
	}
	if ph[0].Processed <= 0 || ph[1].Processed <= 0 {
		t.Error("phases without processed tuples")
	}
	if ph[0].Cost <= 0 || ph[1].Cost <= 0 {
		t.Error("phases without cost")
	}
	if ph[0].OptimalThroughput <= ph[1].OptimalThroughput {
		t.Error("high phase optimum should exceed low phase optimum")
	}
	total := TotalProcessed(res)
	if math.Abs(total-(ph[0].Processed+ph[1].Processed)) > 1e-6*total {
		t.Error("phase processed sums do not match total")
	}
	if CostPerBillion(res) <= 0 {
		t.Error("cost per billion not positive")
	}
}

// TestPhasesConvergenceMinutes checks the convergence time Phases reports
// on a hand-built two-phase result with 10-minute slots: the first phase
// becomes near-optimal on its third slot (30 minutes), the second never
// does and reports -1, as ConvergenceMinutes does for the first phase of
// a run that never converges.
func TestPhasesConvergenceMinutes(t *testing.T) {
	opt := &Optimum{Throughput: 100, TotalTasks: 4}
	res := &Result{Slots: 6, SlotSecs: 600, PhaseStarts: []int{0, 3},
		OptimaByPhase: map[int]*Optimum{0: opt, 3: opt}}
	for s, steady := range []float64{10, 50, 95, 10, 20, 30} {
		res.Trace = append(res.Trace, SlotTrace{Slot: s, SteadyThroughput: steady, TotalTasks: 4})
	}
	ph, err := Phases(res)
	if err != nil {
		t.Fatal(err)
	}
	if ph[0].ConvergenceSlots != 3 || ph[0].ConvergenceMinutes != 30 {
		t.Errorf("converged phase: %d slots, %v min; want 3 slots, 30 min", ph[0].ConvergenceSlots, ph[0].ConvergenceMinutes)
	}
	if ph[1].ConvergenceSlots != -1 || ph[1].ConvergenceMinutes != -1 {
		t.Errorf("unconverged phase: %d slots, %v min; want -1, -1", ph[1].ConvergenceSlots, ph[1].ConvergenceMinutes)
	}
	res.OptimaByPhase[0] = &Optimum{Throughput: 1000, TotalTasks: 4}
	if conv, err := ConvergenceMinutes(res); err != nil || conv != -1 {
		t.Errorf("ConvergenceMinutes of an unconverged run = %v, %v; want -1", conv, err)
	}
}

func TestStaticPolicy(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(shortScenario(t, spec, 5, rates), StaticPolicy([]int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trace[1:] {
		if tr.Tasks[0] != 2 || tr.Tasks[1] != 2 {
			t.Errorf("static policy moved: %v", tr.Tasks)
		}
	}
}

func TestRunValidation(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Scenario{Spec: spec}, DragsterSaddle()); err == nil {
		t.Error("missing RateFunc accepted")
	}
	if _, err := Run(Scenario{Spec: spec, Rates: rates, Slots: 0}, DragsterSaddle()); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := Run(Scenario{Spec: spec, Rates: rates, Slots: 1, StreamEngine: "spark"}, DragsterSaddle()); err == nil {
		t.Error("unknown stream engine accepted")
	}
	if _, err := Run(Scenario{Spec: spec, Rates: rates, Slots: 1}, StaticPolicy([]int{1})); err == nil {
		t.Error("bad static tasks accepted")
	}
}
