// Command dragsterd runs the Dragster control plane as a long-lived
// daemon with an operational HTTP surface:
//
//	GET    /healthz            liveness
//	GET    /fleet/status       fleet state as JSON
//	GET    /fleet/jobs         every job's state; POST submits a job
//	GET    /fleet/jobs/{name}  one job's state; DELETE kills it
//	GET    /fleet/checkpoint   replayable checkpoint for failover
//	GET    /fleet/trace        the control-plane event trace
//	GET    /metrics            Prometheus text format
//
// Usage:
//
//	dragsterd -addr :8080 -slots 100 -wall 2s   # one wordcount job, a round every 2 s
//	dragsterd -fleet "hot=wordcount:high,light=group:low" \
//	          -fleet-budget 20 -arbiter dual -slots 100
//
// A single job is a one-tenant fleet. With -arbiter equal the lone
// tenant is granted the whole -fleet-budget, and its rounds match
// `dragster run`'s saddle-point run under -budget at the tenant's seed
// (-seed plus 100003). A budget of at least Σ MaxTasks stands in for an
// unbounded one. A job's profile is any of cmd/dragster run's four (high,
// low, cycle, step) at run's default period of 20 slots; the ogd,
// dhalion and ds2 policies are available through cmd/dragster.
//
// The daemon drives the simulated Flink-on-Kubernetes stack. Each
// tenant's Job Monitor reads its job's slot report in-process: every
// operator's rates and CPU utilization, the inputs of the Eq. 8 capacity
// estimate. A real deployment would fill that report from the Flink
// monitoring REST API.
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
	"dragster/internal/fleet"
)

func main() {
	addr, build := register(flag.CommandLine)
	flag.Parse()
	d, banner, err := build()
	if err == nil {
		err = serve(*addr, banner, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dragsterd:", err)
		os.Exit(1)
	}
}

// register defines dragsterd's flags on fs. It returns the listen
// address and a function that builds the daemon from the parsed flags,
// along with a one-line banner describing it.
func register(fs *flag.FlagSet) (addr *string, build func() (*daemon.FleetDaemon, string, error)) {
	addr = fs.String("addr", ":8080", "HTTP listen address")
	slots := fs.Int("slots", 1000, "decision rounds to run")
	slotSec := fs.Int("slotsec", 600, "round length in simulated seconds")
	wall := fs.Duration("wall", time.Second, "wall-clock pacing between rounds (0 = flat out)")
	seed := fs.Int64("seed", 1, "random seed")
	jobList := fs.String("fleet", "wordcount=wordcount:high", `comma-separated "name=workload:profile" job list`)
	budget := fs.Int("fleet-budget", 20, "global Σ-tasks budget")
	arbiter := fs.String("arbiter", "dual", "budget arbitration, dual|equal")
	return addr, func() (*daemon.FleetDaemon, string, error) {
		jobs, err := parseJobs(*jobList)
		if err != nil {
			return nil, "", err
		}
		var arb fleet.Arbitration
		switch *arbiter {
		case "dual":
			arb = fleet.DualPrice
		case "equal":
			arb = fleet.EqualSplit
		default:
			return nil, "", fmt.Errorf("unknown arbiter %q", *arbiter)
		}
		d, err := daemon.NewFleet(daemon.FleetConfig{
			Fleet: fleet.Config{
				Jobs:            jobs,
				Slots:           *slots,
				SlotSeconds:     *slotSec,
				Seed:            *seed,
				TotalTaskBudget: *budget,
				Arbitration:     arb,
			},
			SlotWallInterval: *wall,
		})
		if err != nil {
			return nil, "", err
		}
		return d, fmt.Sprintf("%d jobs, budget %d, arbiter %s", len(jobs), *budget, arb), nil
	}
}

// parseJobs resolves a comma-separated "name=workload:profile" list into
// fleet job specs.
func parseJobs(jobList string) ([]fleet.JobSpec, error) {
	var jobs []fleet.JobSpec
	for _, item := range strings.Split(jobList, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf("fleet job %q: want name=workload:profile", item)
		}
		wlName, prof, _ := strings.Cut(rest, ":")
		req := daemon.SubmitRequest{Name: name, Workload: wlName, Profile: prof}
		spec, err := req.ToSpec()
		if err != nil {
			return nil, fmt.Errorf("fleet job %q: %w", name, err)
		}
		jobs = append(jobs, spec)
	}
	return jobs, nil
}

// serve runs the HTTP server alongside the round loop until the loop
// finishes or the process is interrupted, then logs the epilogue.
func serve(addr, banner string, d *daemon.FleetDaemon) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: d.Handler()}
	go func() {
		log.Printf("dragsterd: serving on %s (%s)", addr, banner)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("dragsterd: http server: %v", err)
		}
	}()

	err := d.Run(ctx)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err != nil && err != context.Canceled {
		return err
	}
	res := d.Result()
	log.Printf("dragsterd: finished %d rounds, $%.2f cluster spend", res.Slots, res.ClusterCost)
	return nil
}
