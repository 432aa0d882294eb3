// Command dragster is the operator CLI over the simulated
// Flink-on-Kubernetes stack. It runs one autoscaling policy on one
// benchmark workload, records and inspects sim-time traces of such runs,
// and prints the ground-truth throughput landscape a policy searches.
//
// Usage:
//
//	dragster run -workload wordcount -policy saddle -slots 20
//	dragster run -workload yahoo -policy dhalion -profile step -slots 60
//	dragster run -workload wordcount -policy ogd -budget 13
//	dragster trace record -out trace.jsonl [-chaos node-flap] [run's flags]
//	dragster trace summarize trace.jsonl
//	dragster trace diff a.jsonl b.jsonl
//	dragster trace chrome -out trace.json trace.jsonl
//	dragster landscape -workload yahoo -rate low -budget 30
//
// Policies: saddle, ogd, dhalion, ds2. Profiles: high, low, cycle
// (high/low every -period slots), step (low→high at -period). run and
// trace record share these scenario flags; a slot is 600 simulated
// seconds under run and 60 under trace record.
//
// run streams per-slot progress and the per-phase convergence summary.
// trace record runs the same scenario with a tracer installed and writes
// the JSONL trace (see internal/telemetry); the same flags always produce
// a byte-identical file. trace summarize prints a trace's time-in-phase
// table, per-round regret timeline and metrics snapshot; trace diff
// compares two traces phase by phase and round by round, e.g. a chaos
// run against its fault-free twin; trace chrome converts a trace to the
// Chrome trace_event format (load via chrome://tracing or Perfetto).
// landscape prints the per-operator capacity curves, the full task grid
// for two-operator workloads (the Fig. 4 heatmap data) and the optimum
// under -budget.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dragster/internal/chaos"
	"dragster/internal/experiment"
	"dragster/internal/workload"
)

func main() {
	if err := dragster(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dragster:", err)
		os.Exit(1)
	}
}

// command is one subcommand: it parses args and writes its report to
// stdout.
type command func(args []string, stdout io.Writer) error

// dragster dispatches args[0] to its subcommand.
func dragster(args []string, stdout io.Writer) error {
	return dispatch(args, stdout, map[string]command{
		"run":       cmdRun,
		"trace":     cmdTrace,
		"landscape": cmdLandscape,
	})
}

func dispatch(args []string, stdout io.Writer, cmds map[string]command) error {
	if len(args) > 0 {
		if cmd, ok := cmds[args[0]]; ok {
			return cmd(args[1:], stdout)
		}
	}
	fmt.Fprint(os.Stderr, `usage:
  dragster run [-workload wordcount] [-policy saddle] [-profile high] [-period 20]
               [-slots 20] [-slotsec 600] [-budget 0] [-seed 1] [-engine flink]
  dragster trace record -out trace.jsonl [-chaos name] [run's flags, -slotsec 60]
  dragster trace summarize trace.jsonl
  dragster trace diff a.jsonl b.jsonl
  dragster trace chrome -out trace.json trace.jsonl
  dragster landscape [-workload wordcount] [-rate high] [-budget 0]
`)
	fmt.Fprintln(os.Stderr, "\nchaos scenarios:", chaos.Names())
	switch {
	case len(args) == 0:
		return errors.New("missing command")
	case args[0] == "-h" || args[0] == "-help" || args[0] == "help":
		return flag.ErrHelp
	}
	return fmt.Errorf("unknown command %q", args[0])
}

// scenarioFlags are the flags run and trace record share.
type scenarioFlags struct {
	workload, policy, profile, engine string
	slots, slotSec, period, budget    int
	seed                              int64
}

// register defines the scenario flags on fs with slotSec as the -slotsec
// default.
func (s *scenarioFlags) register(fs *flag.FlagSet, slotSec int) {
	fs.StringVar(&s.workload, "workload", "wordcount", "workload: group|asyncio|join|window|wordcount|yahoo")
	fs.StringVar(&s.policy, "policy", "saddle", "policy: saddle|ogd|dhalion|ds2")
	fs.StringVar(&s.profile, "profile", "high", "offered load: high|low|cycle|step")
	fs.StringVar(&s.engine, "engine", "flink", "stream engine substrate: flink|storm")
	fs.IntVar(&s.slots, "slots", 20, "decision slots to run")
	fs.IntVar(&s.slotSec, "slotsec", slotSec, "slot length in simulated seconds")
	fs.IntVar(&s.period, "period", workload.DefaultPeriod, "phase length (cycle) or change slot (step)")
	fs.IntVar(&s.budget, "budget", 0, "task budget (0 = unbounded)")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
}

// scenario resolves the parsed flags into a scenario and its policy.
func (s *scenarioFlags) scenario() (experiment.Scenario, experiment.PolicyFactory, error) {
	spec, err := workload.ByName(s.workload)
	if err != nil {
		return experiment.Scenario{}, nil, err
	}
	rates, err := workload.Profile(spec, s.profile, s.period)
	if err != nil {
		return experiment.Scenario{}, nil, err
	}
	var factory experiment.PolicyFactory
	switch s.policy {
	case "saddle":
		factory = experiment.DragsterSaddle()
	case "ogd":
		factory = experiment.DragsterOGD()
	case "dhalion":
		factory = experiment.DhalionPolicy()
	case "ds2":
		factory = experiment.DS2Policy()
	default:
		return experiment.Scenario{}, nil, fmt.Errorf("unknown policy %q", s.policy)
	}
	return experiment.Scenario{
		Spec:         spec,
		Rates:        rates,
		Slots:        s.slots,
		SlotSeconds:  s.slotSec,
		Seed:         s.seed,
		TaskBudget:   s.budget,
		StreamEngine: s.engine,
	}, factory, nil
}

// parse parses args into fs, which must take exactly nArgs positional
// arguments.
func parse(fs *flag.FlagSet, args []string, nArgs int, what string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != nArgs {
		return fmt.Errorf("%s needs %d %s, got %d", fs.Name(), nArgs, what, fs.NArg())
	}
	return nil
}

// cmdRun runs one scenario and prints its per-slot trace and per-phase
// summary.
func cmdRun(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var sf scenarioFlags
	sf.register(fs, 600)
	if err := parse(fs, args, 0, "arguments"); err != nil {
		return err
	}
	sc, factory, err := sf.scenario()
	if err != nil {
		return err
	}
	res, err := experiment.Run(sc, factory)
	if err != nil {
		return err
	}

	budget := "∞"
	if sf.budget != 0 {
		budget = fmt.Sprint(sf.budget)
	}
	fmt.Fprintf(w, "%s on %s/%s (%d operators), %d slots × %ds, budget %s\n",
		res.Policy, sf.engine, res.Workload, sc.Spec.Graph.NumOperators(), sf.slots, sf.slotSec, budget)
	opt := res.OptimaByPhase[0]
	fmt.Fprintf(w, "phase-0 optimum: tasks %v → %.0f tuples/s\n\n", opt.Tasks, opt.Throughput)
	fmt.Fprintf(w, "%4s %-24s %12s %12s %8s %10s\n", "slot", "tasks", "steady t/s", "measured", "paused", "cost $")
	for _, tr := range res.Trace {
		fmt.Fprintf(w, "%4d %-24s %12.0f %12.0f %7ds %10.2f\n",
			tr.Slot, fmt.Sprint(tr.Tasks), tr.SteadyThroughput, tr.MeasuredThroughput, tr.PausedSeconds, tr.CostCum)
	}
	fmt.Fprintln(w)
	ph, err := experiment.Phases(res)
	if err != nil {
		return err
	}
	for _, p := range ph {
		conv := "never"
		if p.ConvergenceSlots >= 0 {
			conv = fmt.Sprintf("%.0f min", p.ConvergenceMinutes)
		}
		fmt.Fprintf(w, "phase slots [%d,%d): optimal %.0f t/s, converged %s, %.2fe9 tuples, $%.2f/1e9\n",
			p.StartSlot, p.EndSlot, p.OptimalThroughput, conv, p.Processed/1e9, p.CostPerBillion)
	}
	fmt.Fprintf(w, "\ntotal: %.3fe9 tuples processed, $%.2f spent ($%.2f per 1e9 tuples)\n",
		experiment.TotalProcessed(res)/1e9, experiment.TotalCost(res), experiment.CostPerBillion(res))
	return nil
}

// cmdLandscape prints the ground-truth throughput landscape of a workload
// at a constant offered load.
func cmdLandscape(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("landscape", flag.ContinueOnError)
	var (
		wl     = fs.String("workload", "wordcount", "workload: group|asyncio|join|window|wordcount|yahoo")
		rate   = fs.String("rate", "high", "offered load: high|low")
		budget = fs.Int("budget", 0, "task budget (0 = unbounded)")
	)
	if err := parse(fs, args, 0, "arguments"); err != nil {
		return err
	}
	spec, err := workload.ByName(*wl)
	if err != nil {
		return err
	}
	profile, err := workload.Profile(spec, *rate, 1)
	if err != nil {
		return err
	}
	// At period 1 the cycle and step profiles change rate at slot 1.
	if len(workload.PhaseBoundaries(profile, 2)) > 1 {
		return fmt.Errorf("landscape needs a constant rate (high|low), got %q", *rate)
	}
	rates := profile(0, 0)

	fmt.Fprintf(w, "workload %s at %s rate %v\n\n", spec.Name, *rate, rates)
	fmt.Fprintln(w, "per-operator ground-truth capacity curves (tuples/s):")
	fmt.Fprintf(w, "%-14s", "tasks:")
	for n := 1; n <= spec.MaxTasks; n++ {
		fmt.Fprintf(w, " %8d", n)
	}
	fmt.Fprintln(w)
	for i, m := range spec.Models {
		fmt.Fprintf(w, "%-14s", spec.Graph.OperatorName(i))
		for n := 1; n <= spec.MaxTasks; n++ {
			fmt.Fprintf(w, " %8.0f", m.Capacity(n))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	if spec.Graph.NumOperators() == 2 {
		grid, err := experiment.ThroughputGrid(spec, rates)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "throughput grid (rows: op0 tasks, cols: op1 tasks, ktuples/s):")
		for a := len(grid); a >= 1; a-- {
			fmt.Fprintf(w, "%3d |", a)
			for _, th := range grid[a-1] {
				fmt.Fprintf(w, " %6.1f", th/1000)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}

	opt, err := experiment.OptimalConfig(spec, rates, *budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimum (budget %d): tasks %v (%d total) → %.0f tuples/s\n",
		*budget, opt.Tasks, opt.TotalTasks, opt.Throughput)
	return nil
}
