// Command benchmark regenerates every table and figure of the paper's
// evaluation section against the simulated Flink-on-Kubernetes stack.
//
// Usage:
//
//	benchmark -exp all                 # everything at paper scale
//	benchmark -exp fig4 -slotsec 60    # one experiment, 1-minute slots
//
// Experiments: fig4, fig4budget, fig5, fig6, table2, fig7, table3,
// regret, theorem2, robustness, ablation, fleet, fleetscale, longhorizon,
// all. At the paper's 10-minute
// slots (default -slotsec 600) the full suite simulates tens of hours of
// cluster time and takes a few minutes of wall clock; -slotsec 60 gives a
// quick pass with the same qualitative shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dragster/internal/experiment"
	"dragster/internal/osp"
	"dragster/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig4|fig4budget|fig5|fig6|table2|fig7|table3|regret|theorem2|ds2|robustness|ablation|capacity|fleet|fleetscale|longhorizon|all")
		slotSec    = flag.Int("slotsec", 600, "slot length in simulated seconds (paper: 600)")
		seed       = flag.Int64("seed", 1, "random seed")
		budget     = flag.Int("budget", 13, "task budget for fig4budget (paper: $1.6/h ≈ 13 TaskManager pods)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if err := runProfiled(*exp, *slotSec, *seed, *budget, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runProfiled wraps run with the optional pprof capture: the CPU profile
// spans the whole experiment suite, and the heap profile snapshots live
// allocations after a final GC — the pair `-exp fig4 -cpuprofile cpu.out
// -memprofile mem.out` is how the hot-path work in this repo is measured.
func runProfiled(exp string, slotSec int, seed int64, budget int, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(exp, slotSec, seed, budget); err != nil {
		return err
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

func run(exp string, slotSec int, seed int64, budget int) error {
	w := os.Stdout
	sep := func() {
		fmt.Fprintln(w, "\n"+string(make([]byte, 0))+"────────────────────────────────────────────────────────────")
	}

	runOne := func(name string) error {
		switch name {
		case "fig4":
			r, err := experiment.Fig4(0, 20, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderFig4(w, r)
		case "fig4budget":
			r, err := experiment.Fig4(budget, 20, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderFig4(w, r)
		case "fig5":
			rows, err := experiment.Fig5(40, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderFig5(w, rows)
		case "fig6", "table2":
			r, err := experiment.Fig6(100, 20, slotSec, seed)
			if err != nil {
				return err
			}
			if name == "fig6" {
				experiment.RenderFig6(w, r)
			} else {
				experiment.RenderTable2(w, r)
			}
		case "fig7", "table3":
			r, err := experiment.Fig7(60, 30, slotSec, seed)
			if err != nil {
				return err
			}
			if name == "fig7" {
				experiment.RenderFig7(w, r)
			} else {
				experiment.RenderTable3(w, r)
			}
		case "regret":
			spec, err := workload.WordCount()
			if err != nil {
				return err
			}
			r, err := experiment.RegretRun(spec, osp.SaddlePoint, 200, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderRegret(w, r)
		case "theorem2":
			r, err := experiment.Theorem2Run(0.5, 30, slotSec, seed)
			if err != nil {
				return err
			}
			fmt.Println("Theorem 2: exact vs learned throughput functions (WordCount, priors at 50% of truth)")
			fmt.Printf("  convergence: exact %.0f min, learned %.0f min\n", r.ExactConvMin, r.LearnedConvMin)
			fmt.Printf("  cumulative regret: exact %.3e, learned %.3e\n", r.ExactRegret, r.LearnedRegret)
			fmt.Printf("  map selectivity: prior %.2f → learned %.3f (truth %.1f, %d samples)\n",
				r.PriorK, r.LearnedK, r.TrueK, r.LearnerSamples)
		case "ds2":
			if err := runDS2(slotSec, seed); err != nil {
				return err
			}
		case "robustness":
			if err := runRobustness(slotSec); err != nil {
				return err
			}
		case "ablation":
			if err := runAblation(slotSec, seed); err != nil {
				return err
			}
		case "capacity":
			spec, err := workload.WordCount()
			if err != nil {
				return err
			}
			// 24 slots gives the cold floor room to climb, the surge room
			// to land mid-horizon, and the plan a horizon to amortize over.
			r, err := experiment.RunCapacity(spec, 24, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderCapacity(w, r)
		case "fleet":
			r, err := experiment.FleetBench(20, slotSec, seed)
			if err != nil {
				return err
			}
			experiment.RenderFleetBench(w, r)
		case "fleetscale":
			// 1,000-tenant control-plane load test (not part of -exp all:
			// it measures the fleet core, not the paper's evaluation).
			// cmd/ may read the wall clock; the experiment package may not,
			// so the clock is injected here.
			r, err := experiment.FleetScale(experiment.FleetScaleConfig{Seed: seed, Now: time.Now})
			if err != nil {
				return err
			}
			experiment.RenderFleetScale(w, r)
		case "longhorizon":
			r, err := experiment.LongHorizon(experiment.LongHorizonConfig{Rounds: 1200, Seed: seed})
			if err != nil {
				return err
			}
			experiment.RenderLongHorizon(w, r)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if exp != "all" {
		return runOne(exp)
	}
	order := []string{"fig4", "fig4budget", "fig5", "fig6", "table2", "fig7", "table3", "regret", "theorem2", "ds2", "robustness", "ablation", "capacity", "fleet", "longhorizon"}
	for i, name := range order {
		if i > 0 {
			sep()
		}
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runDS2 adds the related-work comparator (Kalavri et al., OSDI '18) to
// the WordCount recurring-load scenario: DS2's proportional model assumes
// capacity is linear in the task count, so on concave curves it lands a
// notch short and iterates; it also re-derives the configuration from
// scratch at every load change.
func runDS2(slotSec int, seed int64) error {
	spec, err := workload.WordCount()
	if err != nil {
		return err
	}
	cyc, err := workload.Cycle(15, spec.HighRates, spec.LowRates)
	if err != nil {
		return err
	}
	fmt.Println("DS2 comparison: WordCount, recurring high/low load (30 slots)")
	fmt.Printf("%-18s %14s %16s %14s %16s\n", "policy", "conv. (min)", "processed 1e9", "cost $", "cost per 1e9 $")
	for _, pol := range []struct {
		name    string
		factory experiment.PolicyFactory
	}{
		{"dhalion", experiment.DhalionPolicy()},
		{"ds2", experiment.DS2Policy()},
		{"dragster-saddle", experiment.DragsterSaddle()},
	} {
		res, err := experiment.Run(experiment.Scenario{
			Spec:        spec,
			Rates:       cyc,
			Slots:       30,
			SlotSeconds: slotSec,
			Seed:        seed,
		}, pol.factory)
		if err != nil {
			return err
		}
		conv, err := experiment.ConvergenceMinutes(res)
		if err != nil {
			return err
		}
		convStr := "never"
		if conv >= 0 {
			convStr = fmt.Sprintf("%.0f", conv)
		}
		fmt.Printf("%-18s %14s %16.3f %14.2f %16.2f\n", pol.name, convStr,
			experiment.TotalProcessed(res)/1e9,
			experiment.TotalCost(res),
			experiment.CostPerBillion(res))
	}
	return nil
}

// runRobustness repeats the WordCount convergence comparison over 10
// seeds, reporting mean ± std — the seed-sensitivity check behind every
// single-seed table above.
func runRobustness(slotSec int) error {
	spec, err := workload.WordCount()
	if err != nil {
		return err
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		return err
	}
	fmt.Println("Robustness: WordCount convergence across 10 seeds (minutes)")
	fmt.Printf("%-18s %-34s %12s %22s\n", "policy", "convergence (mean ± std [min,max])", "unconverged", "cost $/1e9 (mean±std)")
	for _, pol := range []struct {
		name    string
		factory experiment.PolicyFactory
	}{
		{"dhalion", experiment.DhalionPolicy()},
		{"dragster-saddle", experiment.DragsterSaddle()},
		{"dragster-ogd", experiment.DragsterOGD()},
	} {
		rr, err := experiment.Repeat(experiment.Scenario{
			Spec:        spec,
			Rates:       rates,
			Slots:       30,
			SlotSeconds: slotSec,
		}, pol.factory, experiment.Seeds(10))
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-34s %12d %12.2f ± %.2f\n",
			pol.name, rr.ConvergenceMinutes.String(), rr.Unconverged,
			rr.CostPerBillion.Mean, rr.CostPerBillion.Std)
	}
	return nil
}

// runAblation compares the extended acquisition (Remark 1) against
// conventional GP-UCB on the Fig. 6 down-scaling scenario: both converge
// at the high rate, but only the extended rule scales down economically.
func runAblation(slotSec int, seed int64) error {
	spec, err := workload.WordCount()
	if err != nil {
		return err
	}
	cyc, err := workload.Cycle(15, spec.HighRates, spec.LowRates)
	if err != nil {
		return err
	}
	fmt.Println("Ablation: extended (target-tracking) vs conventional GP-UCB acquisition")
	fmt.Printf("%-26s %14s %14s %16s\n", "acquisition", "processed 1e9", "cost $", "cost per 1e9 $")
	for _, pf := range []struct {
		name    string
		factory experiment.PolicyFactory
	}{
		{"extended (paper)", experiment.DragsterSaddle()},
		{"conventional", experiment.DragsterConventionalUCB()},
	} {
		name, factory := pf.name, pf.factory
		res, err := experiment.Run(experiment.Scenario{
			Spec:        spec,
			Rates:       cyc,
			Slots:       30,
			SlotSeconds: slotSec,
			Seed:        seed,
		}, factory)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %14.3f %14.2f %16.2f\n", name,
			experiment.TotalProcessed(res)/1e9,
			experiment.TotalCost(res),
			experiment.CostPerBillion(res))
	}
	return nil
}
