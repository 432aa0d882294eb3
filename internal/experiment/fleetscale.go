package experiment

import (
	"fmt"
	"io"
	"time"

	"dragster/internal/fleet"
	"dragster/internal/workload"
)

// Fleet-at-scale scenario: the event-driven control plane driving 1,000+
// tenants through the parallel decide fan-out. Unlike FleetBench — which
// scores arbitration quality on a 3-job fleet — this scenario is a
// control-plane load test: what matters is that per-round latency stays
// bounded as the tenant count grows, and that the event trace stays a
// pure function of the seed no matter how many CPUs the decide work is
// spread over.

// FleetScaleConfig sizes the scenario.
type FleetScaleConfig struct {
	// Jobs is the tenant count (default 1000).
	Jobs int
	// Rounds is how many fleet rounds to run after the admission round
	// (default 5; the admission round — which builds every tenant's
	// controller stack — is reported separately).
	Rounds int
	Seed   int64
	// Now, when non-nil, is sampled around every round to report wall
	// latency. The experiment package may not read the wall clock itself
	// (the simclock lint keeps measurement code deterministic), so the
	// caller — cmd/benchmark — injects time.Now; leave nil for the
	// deterministic portion only.
	Now func() time.Time
}

// FleetScaleResult is one scaled run.
type FleetScaleResult struct {
	Jobs, Rounds int
	// AdmitMillis is the admission round's wall time (0 without a clock):
	// every tenant arrives, is admitted against the budget, and builds
	// its simulator + controller stack.
	AdmitMillis float64
	// RoundMillis are per-round wall times for the steady-state rounds.
	RoundMillis []float64
	// TraceEvents / TraceHash summarize the committed event log. The hash
	// is the determinism witness: equal seeds must produce equal hashes
	// at any worker count.
	TraceEvents int
	TraceHash   uint64
	// TotalTasks is Σ effective tasks across tenants in the final round.
	TotalTasks int
}

// FleetScale runs the scenario.
func FleetScale(cfg FleetScaleConfig) (*FleetScaleResult, error) {
	if cfg.Jobs == 0 {
		cfg.Jobs = 1000
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 5
	}
	specs := make([]fleet.JobSpec, cfg.Jobs)
	for i := range specs {
		spec, err := workload.WordCount()
		if err != nil {
			return nil, err
		}
		rates, err := workload.Constant(spec.LowRates)
		if err != nil {
			return nil, err
		}
		specs[i] = fleet.JobSpec{Name: fmt.Sprintf("job-%04d", i), Workload: spec, Rates: rates}
	}
	m, err := fleet.New(fleet.Config{
		Jobs:            specs,
		Slots:           cfg.Rounds + 1,
		SlotSeconds:     30,
		Seed:            cfg.Seed,
		TotalTaskBudget: 4 * cfg.Jobs,
		MaxQueue:        cfg.Jobs,
		// All tenants share one workload kind; cross-job warm start would
		// be O(jobs × history) archive replay at admission and is not what
		// this scenario measures.
		DisableWarmStart: true,
	})
	if err != nil {
		return nil, err
	}
	res := &FleetScaleResult{Jobs: cfg.Jobs, Rounds: cfg.Rounds}
	stamp := func() time.Time {
		if cfg.Now == nil {
			return time.Time{}
		}
		return cfg.Now()
	}
	elapsed := func(from time.Time) float64 {
		if cfg.Now == nil {
			return 0
		}
		return float64(cfg.Now().Sub(from)) / float64(time.Millisecond)
	}
	t0 := stamp()
	if err := m.Step(); err != nil {
		return nil, err
	}
	res.AdmitMillis = elapsed(t0)
	for r := 0; r < cfg.Rounds; r++ {
		t0 = stamp()
		if err := m.Step(); err != nil {
			return nil, err
		}
		res.RoundMillis = append(res.RoundMillis, elapsed(t0))
	}
	res.TraceEvents = len(m.Events())
	res.TraceHash = m.TraceHash()
	fr := m.Result()
	if n := len(fr.TotalTasksByRound); n > 0 {
		res.TotalTasks = fr.TotalTasksByRound[n-1]
	}
	return res, nil
}

// RenderFleetScale writes the scaled-run report.
func RenderFleetScale(w io.Writer, r *FleetScaleResult) {
	fmt.Fprintf(w, "Fleet at scale: %d tenants, %d steady-state rounds\n", r.Jobs, r.Rounds)
	fmt.Fprintf(w, "  trace: %d events, hash %016x (seed-determined at any worker count)\n",
		r.TraceEvents, r.TraceHash)
	fmt.Fprintf(w, "  final round Σ tasks: %d\n", r.TotalTasks)
	if r.AdmitMillis == 0 && len(r.RoundMillis) > 0 && r.RoundMillis[0] == 0 {
		return // no clock injected; deterministic portion only
	}
	fmt.Fprintf(w, "  admission round: %.0f ms (every tenant admitted, stacks built)\n", r.AdmitMillis)
	var sum, max float64
	for _, ms := range r.RoundMillis {
		sum += ms
		if ms > max {
			max = ms
		}
	}
	if n := len(r.RoundMillis); n > 0 {
		fmt.Fprintf(w, "  steady-state round: mean %.0f ms, max %.0f ms\n", sum/float64(n), max)
	}
}
