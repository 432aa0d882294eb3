package planner

import (
	"fmt"
	"math"

	"dragster/internal/stats"
	"dragster/internal/streamsim"
)

// Probe mechanics. One probe pins operator i at n tasks, sets every
// other operator to the grid maximum, and overdrives the sources so that
// — if anything upstream can feed it — operator i becomes the bottleneck.
// The probe then runs a short simulated window and averages the
// operator's emitted rate, utilization, and input-queue imbalance past a
// warm-up prefix.
//
// Saturation gate: the emitted rate is only a capacity observation when
// the operator could not keep up — its inputs arrived faster than it
// drained them AND its CPU was pinned. An unsaturated probe (the rest of
// the DAG at max parallelism cannot feed cap_i(n)) measures the upstream
// feed rather than the operator, so it is recorded but contributes no
// observation, and the schedule stops probing that operator at larger n
// (capacity curves are monotone in the task count, so every larger probe
// would be unsaturated too).

// probeSeconds is the simulated length of one probe run.
const probeSeconds = 30

// probeWarmupSec is the prefix of each probe excluded from the averages
// (queues fill and the drain pattern stabilizes during it).
const probeWarmupSec = 5

// probesPerOperator sizes the probe budget: a plan runs at most this many
// probe simulations per operator in total.
const probesPerOperator = 6

// Saturation thresholds: arrivals must outpace consumption by 5% and the
// mean reported utilization must be pinned near the top of its range.
const (
	probeMinArrivalExcess = 1.05
	probeMinUtil          = 0.8
)

// Probe records one probe simulation of the schedule.
type Probe struct {
	// Operator is the probed operator's name; OpIndex its dense index.
	Operator string
	OpIndex  int
	// Tasks is the probed task count.
	Tasks int
	// Capacity is the mean emitted-output rate (tuples/s) past warm-up —
	// a capacity observation only when Saturated.
	Capacity float64
	// Util is the mean reported CPU utilization past warm-up.
	Util float64
	// Saturated reports whether the operator was the binding constraint.
	Saturated bool
}

// probePoints is the ascending task-count ladder probed per operator:
// dense at small n (where short scaled-down runs are cheap and the curve
// bends) and sparse above, always ending at the grid bound.
func probePoints(maxTasks int) []int {
	var out []int
	for n := 1; n <= maxTasks && n <= 3; n++ {
		out = append(out, n)
	}
	for n := 5; n < maxTasks; n += 2 {
		out = append(out, n)
	}
	if maxTasks > 3 {
		out = append(out, maxTasks)
	}
	return out
}

// runSchedule executes the budget-bounded probe schedule: operators in
// topological (dense-index) order, ascending task counts, early stop per
// operator on the first unsaturated probe, hard stop after budget probes.
func runSchedule(cfg *Config, budget int) ([]Probe, error) {
	spec := cfg.Spec
	m := spec.Graph.NumOperators()
	pb, err := newProber(cfg)
	if err != nil {
		return nil, err
	}
	points := probePoints(spec.MaxTasks)
	var probes []Probe
	for i := 0; i < m; i++ {
		for _, n := range points {
			if len(probes) >= budget {
				return probes, nil
			}
			pr, err := pb.run(i, n, int64(len(probes)))
			if err != nil {
				return nil, err
			}
			probes = append(probes, pr)
			if !pr.Saturated {
				break // larger n cannot saturate either
			}
		}
	}
	return probes, nil
}

// driveRates overdrives every source far past the target so the probed
// operator, not the offered load, is the binding constraint. YMax bounds
// every reachable operator capacity, so a YMax-scale feed saturates any
// operator its upstream can keep fed.
func driveRates(cfg *Config) []float64 {
	out := make([]float64, len(cfg.TargetRates))
	for i, r := range cfg.TargetRates {
		out[i] = math.Max(2*r, cfg.Spec.YMax)
	}
	return out
}

// prober holds the one engine and RNG a plan's probes share, with the
// drive rates and the task vector every probe sets.
type prober struct {
	cfg    *Config
	drive  []float64
	tasks  []int
	rng    *stats.RNG
	engine *streamsim.Engine
}

// newProber builds the plan's probe engine and its RNG once.
func newProber(cfg *Config) (*prober, error) {
	spec := cfg.Spec
	drive := driveRates(cfg)
	// Buffers large enough to keep growing for the whole probe: the gate
	// watches arrival excess, which a full (dropping) buffer would mask.
	var peak float64
	for _, r := range drive {
		if r > peak {
			peak = r
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	engine, err := streamsim.New(streamsim.Config{
		Graph:            spec.Graph,
		Models:           spec.Models,
		NoiseSigma:       streamsim.CloudNoiseSigma,
		UtilNoiseSigma:   streamsim.CloudUtilNoiseSigma,
		MaxBufferPerEdge: 4 * float64(probeSeconds) * math.Max(peak, 1),
		RNG:              rng,
	})
	if err != nil {
		return nil, err
	}
	return &prober{
		cfg:    cfg,
		drive:  drive,
		tasks:  make([]int, spec.Graph.NumOperators()),
		rng:    rng,
		engine: engine,
	}, nil
}

// run simulates one probe. The engine is Reset and the RNG reseeded
// from the plan seed and the probe index first, so each probe sees
// exactly the noise stream and empty queues of a fresh engine seeded
// cfg.Seed + 7919·(probeIdx+1): probe order never leaks state and the
// schedule is trivially replayable.
func (pb *prober) run(op, n int, probeIdx int64) (Probe, error) {
	spec := pb.cfg.Spec
	for i := range pb.tasks {
		pb.tasks[i] = spec.MaxTasks
	}
	pb.tasks[op] = n
	pb.engine.Reset()
	pb.rng.Seed(pb.cfg.Seed + 7919*(probeIdx+1))
	if err := pb.engine.SetTasks(pb.tasks); err != nil {
		return Probe{}, err
	}
	pb.engine.BeginSlot()

	for sec := 0; sec < probeSeconds; sec++ {
		if sec == probeWarmupSec {
			// The measured window starts here: a probe never pauses, so
			// the totals then sum exactly its remaining ticks.
			pb.engine.ClearTotals()
		}
		if err := pb.engine.Tick(pb.drive); err != nil {
			return Probe{}, fmt.Errorf("planner: probe %s n=%d tick %d: %w",
				spec.Graph.OperatorName(op), n, sec, err)
		}
	}
	t := pb.engine.Totals()
	s, o := float64(t.Active), &t.Ops[op]
	meanEmitted, meanUtil := o.Emitted/s, o.Util/s
	saturated := o.Arrived > o.Consumed*probeMinArrivalExcess && meanUtil >= probeMinUtil
	pr := Probe{
		Operator:  spec.Graph.OperatorName(op),
		OpIndex:   op,
		Tasks:     n,
		Util:      meanUtil,
		Saturated: saturated,
	}
	if saturated {
		pr.Capacity = meanEmitted
	}
	return pr, nil
}
