// Command dragsterd runs the Dragster controller as a long-lived daemon
// with an operational HTTP surface:
//
//	GET /healthz   liveness
//	GET /status    controller state as JSON
//	GET /metrics   Prometheus text format
//
// Usage:
//
//	dragsterd -addr :8080 -workload wordcount -policy saddle -slots 100 \
//	          -wall 2s      # one decision slot every 2 s of wall clock
//
// Fleet mode runs the multi-job control plane (internal/fleet) instead
// of a single controller and adds the multi-tenant surface
// (/fleet/status, /fleet/jobs, POST/DELETE job management):
//
//	dragsterd -fleet "hot=wordcount:high,light=group:low" \
//	          -fleet-budget 20 -arbiter dual -slots 100
//
// The daemon drives the simulated Flink-on-Kubernetes stack; in a real
// deployment the same loop would sit behind the Flink REST API and the
// Kubernetes metrics server (see internal/monitor.HTTPSource).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"dragster/internal/daemon"
	"dragster/internal/experiment"
	"dragster/internal/fleet"
	"dragster/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		wl      = flag.String("workload", "wordcount", "workload name")
		policy  = flag.String("policy", "saddle", "policy: saddle|ogd|dhalion|ds2")
		profile = flag.String("profile", "cycle", "offered load: high|low|cycle|step")
		period  = flag.Int("period", 20, "phase length (cycle) or change slot (step)")
		slots   = flag.Int("slots", 1000, "decision slots to run")
		slotSec = flag.Int("slotsec", 600, "slot length in simulated seconds")
		wall    = flag.Duration("wall", time.Second, "wall-clock pacing between slots (0 = flat out)")
		budget  = flag.Int("budget", 0, "task budget (0 = unbounded)")
		seed    = flag.Int64("seed", 1, "random seed")

		fleetJobs   = flag.String("fleet", "", `fleet mode: comma-separated "name=workload:profile" job list`)
		fleetBudget = flag.Int("fleet-budget", 20, "fleet mode: global Σ-tasks budget")
		arbiter     = flag.String("arbiter", "dual", "fleet mode: budget arbitration, dual|equal")
	)
	flag.Parse()
	var err error
	if *fleetJobs != "" {
		err = runFleet(*addr, *fleetJobs, *arbiter, *slots, *slotSec, *fleetBudget, *wall, *seed)
	} else {
		err = run(*addr, *wl, *policy, *profile, *period, *slots, *slotSec, *wall, *budget, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dragsterd:", err)
		os.Exit(1)
	}
}

// runFleet parses the job list and serves the multi-job control plane.
func runFleet(addr, jobList, arbiter string, slots, slotSec, budget int, wall time.Duration, seed int64) error {
	var jobs []fleet.JobSpec
	for _, item := range strings.Split(jobList, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return fmt.Errorf("fleet job %q: want name=workload:profile", item)
		}
		wlName, prof, _ := strings.Cut(rest, ":")
		req := daemon.SubmitRequest{Name: name, Workload: wlName, Profile: prof}
		spec, err := req.ToSpec()
		if err != nil {
			return fmt.Errorf("fleet job %q: %w", name, err)
		}
		jobs = append(jobs, spec)
	}
	var arb fleet.Arbitration
	switch arbiter {
	case "dual":
		arb = fleet.DualPrice
	case "equal":
		arb = fleet.EqualSplit
	default:
		return fmt.Errorf("unknown arbiter %q", arbiter)
	}
	d, err := daemon.NewFleet(daemon.FleetConfig{
		Fleet: fleet.Config{
			Jobs:            jobs,
			Slots:           slots,
			SlotSeconds:     slotSec,
			Seed:            seed,
			TotalTaskBudget: budget,
			Arbitration:     arb,
		},
		SlotWallInterval: wall,
	})
	if err != nil {
		return err
	}
	return serve(addr, fmt.Sprintf("fleet mode, %d jobs, budget %d, arbiter %s", len(jobs), budget, arb),
		d.Handler(), d.Run, func() string {
			res := d.Result()
			return fmt.Sprintf("finished %d rounds, $%.2f cluster spend", res.Slots, res.ClusterCost)
		})
}

func run(addr, wl, policy, profile string, period, slots, slotSec int, wall time.Duration, budget int, seed int64) error {
	spec, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	var rates workload.RateFunc
	switch profile {
	case "high":
		rates, err = workload.Constant(spec.HighRates)
	case "low":
		rates, err = workload.Constant(spec.LowRates)
	case "cycle":
		rates, err = workload.Cycle(period, spec.HighRates, spec.LowRates)
	case "step":
		rates, err = workload.StepAt(period, spec.LowRates, spec.HighRates)
	default:
		return fmt.Errorf("unknown profile %q", profile)
	}
	if err != nil {
		return err
	}
	var factory experiment.PolicyFactory
	switch policy {
	case "saddle":
		factory = experiment.DragsterSaddle()
	case "ogd":
		factory = experiment.DragsterOGD()
	case "dhalion":
		factory = experiment.DhalionPolicy()
	case "ds2":
		factory = experiment.DS2Policy()
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}

	d, err := daemon.New(daemon.Config{
		Scenario: experiment.Scenario{
			Spec:        spec,
			Rates:       rates,
			Slots:       slots,
			SlotSeconds: slotSec,
			Seed:        seed,
			TaskBudget:  budget,
		},
		Factory:          factory,
		SlotWallInterval: wall,
	})
	if err != nil {
		return err
	}

	return serve(addr, fmt.Sprintf("workload=%s policy=%s", wl, policy),
		d.Handler(), d.Run, func() string {
			s := d.Snapshot()
			return fmt.Sprintf("finished %d/%d slots, %.3fe9 tuples, $%.2f",
				s.SlotsCompleted, s.SlotsTotal, s.ProcessedTotal/1e9, s.CostDollars)
		})
}

// serve runs the HTTP server alongside the loop until the loop finishes
// or the process is interrupted, then logs the epilogue.
func serve(addr, banner string, h http.Handler, loop func(context.Context) error, epilogue func() string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		log.Printf("dragsterd: serving on %s (%s)", addr, banner)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("dragsterd: http server: %v", err)
		}
	}()

	err := loop(ctx)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err != nil && err != context.Canceled {
		return err
	}
	log.Printf("dragsterd: %s", epilogue())
	return nil
}
