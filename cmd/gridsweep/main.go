// Command gridsweep evaluates the ground-truth throughput landscape of a
// workload: the full task grid for ≤2-operator applications (the Fig. 4
// heatmap data) or the greedy/budgeted optimum plus per-operator capacity
// curves otherwise. Grid cells are evaluated in parallel, one goroutine
// per CPU; the output is the same at any GOMAXPROCS.
//
// Usage:
//
//	gridsweep -workload wordcount -rate high
//	gridsweep -workload yahoo -rate low -budget 30
package main

import (
	"flag"
	"fmt"
	"os"

	"dragster/internal/experiment"
	"dragster/internal/par"
	"dragster/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "wordcount", "workload name")
		rate   = flag.String("rate", "high", "offered load: high|low")
		budget = flag.Int("budget", 0, "task budget (0 = unbounded)")
	)
	flag.Parse()
	if err := run(*wl, *rate, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(1)
	}
}

func run(wl, rate string, budget int) error {
	spec, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	rates := spec.HighRates
	if rate == "low" {
		rates = spec.LowRates
	} else if rate != "high" {
		return fmt.Errorf("unknown rate %q", rate)
	}

	fmt.Printf("workload %s at %s rate %v\n\n", spec.Name, rate, rates)

	fmt.Println("per-operator ground-truth capacity curves (tuples/s):")
	fmt.Printf("%-14s", "tasks:")
	for n := 1; n <= spec.MaxTasks; n++ {
		fmt.Printf(" %8d", n)
	}
	fmt.Println()
	for i, m := range spec.Models {
		fmt.Printf("%-14s", spec.Graph.OperatorName(i))
		for n := 1; n <= spec.MaxTasks; n++ {
			fmt.Printf(" %8.0f", m.Capacity(n))
		}
		fmt.Println()
	}
	fmt.Println()

	if spec.Graph.NumOperators() == 2 {
		// The MaxTasks² cells are independent, so par.For fills an
		// index-addressed result grid and the rows print serially
		// afterwards — same output at any worker count.
		n := spec.MaxTasks
		cells := make([]float64, n*n)
		errs := make([]error, n*n)
		par.For(len(cells), 0, func(i int) {
			a, b := i/n+1, i%n+1
			cells[i], errs[i] = experiment.SteadyThroughput(spec, rates, []int{a, b})
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		fmt.Println("throughput grid (rows: op0 tasks, cols: op1 tasks, ktuples/s):")
		for a := n; a >= 1; a-- {
			fmt.Printf("%3d |", a)
			for b := 1; b <= n; b++ {
				fmt.Printf(" %6.1f", cells[(a-1)*n+b-1]/1000)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	opt, err := experiment.OptimalConfig(spec, rates, budget)
	if err != nil {
		return err
	}
	fmt.Printf("optimum (budget %d): tasks %v (%d total) → %.0f tuples/s\n",
		budget, opt.Tasks, opt.TotalTasks, opt.Throughput)
	return nil
}
