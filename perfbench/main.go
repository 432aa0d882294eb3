// Command perfbench measures Dragster control rounds end to end and,
// from a separate CPU-profiled run, layer by layer.
//
// A control round is one decision slot: the Flink substrate simulates the
// slot on the dataflow engine, the monitor collects metrics, each
// controller decides (online saddle point, then GP-UCB) and the rescale
// is applied. Workloads:
//
//	paper-yahoo   one controller on the six-operator Yahoo pipeline with
//	              the paper's Fig. 7 mid-run load step
//	fleet-churn   tenants of six applications under one task budget,
//	              arriving, queueing, planned at admission, departing and
//	              killed while the fleet runs
//
// Each run builds fresh instances from seeds derived from --seed and
// drives each through all its rounds, taking new seeds for a fifth of
// --seconds; it then runs the same seeds four more times, pass after
// pass. Building an instance is the set-up time; a fleet's admission
// round, which builds every initial tenant's stack, belongs to set-up.
// The end-to-end figures are medians over every instance run of its
// times scaled to a nominal host speed (see hostspeed.go). Every run's
// outputs are checked, and every pass over a seed must reproduce its
// first pass's outputs exactly.
//
// Run it through the wrapper, which builds it from source:
//
//	python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are per-layer CPU time per
// round, attributed by Go package from a CPU profile, plus allocation and
// work counts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// procs fixes GOMAXPROCS so every host runs the same schedule. On a
// two-CPU host, two made single-controller rounds about a third slower,
// with background GC competing for the round, and did not make fleet
// rounds any faster.
const procs = 1

// minInstances is the fewest instances a run builds however short
// --seconds is, so setup_s is always a median of several set-ups.
const minInstances = 5

// passes is how many times a run goes over its instance seeds, one pass
// after the other.
const passes = 5

// warmupShare of --seconds is spent, before measuring, running instances
// whose figures are dropped: the first seconds of a process ran its
// rounds about a fifth slower while the heap grew to its working size.
const warmupShare = 0.1

// layers are the Dragster packages whose CPU time is reported; any
// other package counts as "other".
var layers = []string{
	"experiment", "fleet", "planner", "core", "osp", "autodiff", "gp", "linalg", "ucb",
	"store", "monitor", "flink", "cluster", "streamsim", "dag", "telemetry", "stats",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "paper-yahoo or fleet-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a CPU-profiled run")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)

	var prof bytes.Buffer
	if *trace == 1 {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	rn, err := measure(build, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if *trace == 1 {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: rn.correct, Attempted: rn.attempted, Failed: rn.failed}
	if *trace == 1 {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = perLayer(rn, p)
	} else {
		res.Metrics = endToEnd(rn)
	}
	summary := fmt.Sprintf("%s seed %d: %d instance seeds × %d passes, %d rounds, %d tenant rounds",
		*name, *seed, len(rn.seeds), passes, rn.rounds, rn.work.tenantRounds)
	if len(rn.hostScale) > 0 {
		summary += fmt.Sprintf(", median host scale %.3f", quantile(rn.hostScale, 0.5))
	}
	fmt.Fprintln(os.Stderr, "perfbench:", summary)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// instanceSeed derives the k-th instance's seed from the run's seed.
func instanceSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

type measurement struct {
	seeds     []*seedRuns
	rounds    int // measured control rounds run, over every pass
	attempted int
	failed    int
	correct   bool
	work      workCounts // over every pass
	// Per instance run, scaled to the nominal host speed (untraced runs
	// only): set-up seconds, milliseconds per round, tenant rounds per
	// second.
	setup, roundMS, perSec []float64
	// hostScale is, per instance run, the factor that took its times to
	// the nominal host speed.
	hostScale []float64
	ref       *hostRef
	lastRef   time.Duration
	// Heap allocation during measured rounds (traced runs only).
	allocBytes, allocObjects uint64
}

// seedRuns holds one instance seed's outputs over the passes that ran it.
type seedRuns struct {
	seed        int64
	runs        int
	fingerprint uint64
}

func measure(build builder, seed int64, d time.Duration, traced bool) (*measurement, error) {
	rn := &measurement{correct: true}
	if !traced {
		rn.ref = newHostRef()
	}
	warm := time.Duration(float64(d) * warmupShare)
	for k, t0 := 0, time.Now(); k == 0 || time.Since(t0) < warm; k++ {
		var err error
		phase(traced, "warmup", func() {
			var inst instance
			if inst, err = build(instanceSeed(seed, -1-k)); err != nil {
				return
			}
			for !inst.done() && err == nil {
				err = inst.step()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("warm-up instance %d: %w", k, err)
		}
	}
	if rn.ref != nil {
		rn.lastRef = rn.ref.run()
	}
	// The first pass takes new seeds for its share of the run; the others
	// run the same seeds again in the same order.
	for t0 := time.Now(); len(rn.seeds) < minInstances || time.Since(t0) < d/passes; {
		sr := &seedRuns{seed: instanceSeed(seed, len(rn.seeds))}
		if err := rn.runInstance(build, sr, traced); err != nil {
			return nil, err
		}
		rn.seeds = append(rn.seeds, sr)
	}
	for p := 1; p < passes; p++ {
		for _, sr := range rn.seeds {
			if err := rn.runInstance(build, sr, traced); err != nil {
				return nil, err
			}
		}
	}
	return rn, nil
}

// runInstance builds the instance of sr's seed, runs all its rounds,
// checks its outputs and records its times. Every run of a seed must give
// the same outputs.
func (rn *measurement) runInstance(build builder, sr *seedRuns, traced bool) error {
	var inst instance
	var err error
	t0 := time.Now()
	phase(traced, "setup", func() { inst, err = build(sr.seed) })
	if err != nil {
		return fmt.Errorf("set-up of instance seed %d: %w", sr.seed, err)
	}
	setup := time.Since(t0).Seconds()
	var busy time.Duration
	rounds := 0
	for !inst.done() {
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		t := time.Now()
		phase(traced, "round", func() { err = inst.step() })
		el := time.Since(t)
		if traced {
			runtime.ReadMemStats(&m1)
			rn.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			rn.allocObjects += m1.Mallocs - m0.Mallocs
		}
		rn.attempted++
		if err != nil {
			rn.failed++
			break
		}
		busy += el
		rounds++
	}
	if err == nil {
		err = inst.check()
	}
	w := inst.work()
	if fp := inst.fingerprint(); sr.runs == 0 {
		sr.fingerprint = fp
	} else if err == nil && fp != sr.fingerprint {
		err = fmt.Errorf("diverged: fingerprint %016x, first run %016x", fp, sr.fingerprint)
	}
	sr.runs++
	if rn.ref != nil && rounds > 0 && busy > 0 {
		r := rn.ref.run()
		scale := hostScale(rn.lastRef, r)
		rn.lastRef = r
		rn.hostScale = append(rn.hostScale, scale)
		rn.setup = append(rn.setup, setup*scale)
		rn.roundMS = append(rn.roundMS, busy.Seconds()*1e3/float64(rounds)*scale)
		rn.perSec = append(rn.perSec, float64(w.tenantRounds)/busy.Seconds()/scale)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: instance seed %d, run %d: %v\n", sr.seed, sr.runs, err)
		rn.correct = false
	}
	rn.rounds += rounds
	rn.work.add(w)
	return nil
}

// phase runs f, under a pprof label naming the phase when profiling so
// the profile can tell set-up from measured rounds. Goroutines f starts
// inherit the label.
func phase(traced bool, name string, f func()) {
	if !traced {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
}

// endToEnd reports medians over the run's instance runs, at the nominal
// host speed.
func endToEnd(rn *measurement) map[string]metric {
	return map[string]metric{
		"round_ms":            {quantile(rn.roundMS, 0.5), "ms"},
		"tenant_rounds_per_s": {quantile(rn.perSec, 0.5), "1/s"},
		"setup_s":             {quantile(rn.setup, 0.5), "s"},
	}
}

func perLayer(rn *measurement, p *cpuProfile) map[string]metric {
	rounds := float64(rn.rounds)
	if rounds == 0 {
		rounds = 1
	}
	known := make(map[string]bool, len(layers))
	for _, l := range layers {
		known[l] = true
	}
	nanos := make(map[string]int64)
	for _, s := range p.samples {
		l := p.layerOf(s)
		switch p.label(s, "phase") {
		case "round":
			if !known[l] && l != "gc" {
				l = "other"
			}
		case "":
			// Background GC carries no label; it is charged to the
			// rounds as a whole.
			if l != "gc" {
				continue
			}
		default:
			continue
		}
		nanos[l] += s.nanos
	}
	out := make(map[string]metric)
	for _, l := range append(append([]string(nil), layers...), "other", "gc") {
		out["cpu."+l] = metric{float64(nanos[l]) / 1e6 / rounds, "ms/round"}
	}
	w := rn.work
	out["alloc_kb_per_round"] = metric{float64(rn.allocBytes) / 1024 / rounds, "KiB/round"}
	out["allocs_per_round"] = metric{float64(rn.allocObjects) / rounds, "count/round"}
	out["tenants_per_round"] = metric{float64(w.tenantRounds) / rounds, "count/round"}
	out["rescales_per_round"] = metric{float64(w.rescales) / rounds, "count/round"}
	out["events_per_round"] = metric{float64(w.events) / rounds, "count/round"}
	out["admissions_per_round"] = metric{float64(w.admissions) / rounds, "count/round"}
	out["plans_per_round"] = metric{float64(w.plans) / rounds, "count/round"}
	return out
}

// quantile interpolates linearly between the closest ranks (0 for no
// data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
