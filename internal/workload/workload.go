// Package workload builds the benchmark applications of the paper's
// evaluation (§6.1): five Nexmark-derived workloads (Group, AsyncIO, Join,
// Window, WordCount) and the six-operator Yahoo streaming benchmark, each
// with its DAG, exact throughput functions, capacity-splitting weights and
// hidden ground-truth capacity curves, plus the offered-load profiles the
// experiments replay (constant, recurring steps, one-time step).
//
// Rates are calibrated so the optimal configuration is interior to the
// 1..10 task grid at the high rate — the property that makes the search
// problem non-trivial in Fig. 4.
//
// Each kind is built and validated once per process. Every constructor
// call returns a Spec of its own whose slices the caller may change,
// while the *dag.Graph and the capacity model values, which are
// immutable, are shared by every Spec of that kind.
package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dragster/internal/dag"
	"dragster/internal/streamsim"
)

// Spec bundles everything an experiment needs to run one application.
type Spec struct {
	// Name identifies the workload in tables ("wordcount", "yahoo", ...).
	Name string
	// Graph is the application DAG with exact throughput functions (the
	// paper provides these to all policies).
	Graph *dag.Graph
	// Models are the hidden ground-truth capacity curves per operator.
	// Only the simulator sees them.
	Models []streamsim.CapacityModel
	// HighRates and LowRates are the two offered-load levels of §6.1.
	HighRates, LowRates []float64
	// MaxTasks is the per-operator parallelism grid bound (paper: 10).
	MaxTasks int
	// YMax is a level-1 capacity box bound ≥ the largest reachable
	// operator capacity.
	YMax float64
}

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("workload %s: nil graph", s.Name)
	}
	if len(s.Models) != s.Graph.NumOperators() {
		return fmt.Errorf("workload %s: %d models for %d operators", s.Name, len(s.Models), s.Graph.NumOperators())
	}
	if len(s.HighRates) != s.Graph.NumSources() || len(s.LowRates) != s.Graph.NumSources() {
		return fmt.Errorf("workload %s: rate vectors must match %d sources", s.Name, s.Graph.NumSources())
	}
	if s.MaxTasks < 1 || s.YMax <= 0 || math.IsNaN(s.YMax) || math.IsInf(s.YMax, 0) {
		return fmt.Errorf("workload %s: MaxTasks=%d YMax=%v invalid", s.Name, s.MaxTasks, s.YMax)
	}
	return nil
}

func mustPower(perTask, gamma, ripple float64) streamsim.PowerCurve {
	c, err := streamsim.NewPowerCurve(perTask, gamma, ripple)
	if err != nil {
		panic(err) // workload constants are validated at test time
	}
	return c
}

// clone returns a Spec of its own over a kind's cached spec: fresh
// Models, HighRates and LowRates slices, sharing the immutable Graph and
// the validated model values with every other Spec of the kind.
func clone(s *Spec, err error) (*Spec, error) {
	if err != nil {
		return nil, err
	}
	c := *s
	c.Models = slices.Clone(s.Models)
	c.HighRates = slices.Clone(s.HighRates)
	c.LowRates = slices.Clone(s.LowRates)
	return &c, nil
}

// WordCount is the two-operator pipeline of Fig. 4:
// source → map (flatMap, selectivity 2) → shuffle (count) → sink.
// At the high rate (50 k tuples/s) the unbudgeted optimum sits near
// (map=9, shuffle=7) on the 10×10 grid.
func WordCount() (*Spec, error) { return clone(wordCount()) }

var wordCount = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	src := b.Source("source")
	mp := b.Operator("map")
	sh := b.Operator("shuffle")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, mp, sh, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(2), dag.Selectivity(1)}); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:  "wordcount",
		Graph: g,
		Models: []streamsim.CapacityModel{
			mustPower(16000, 0.85, 0.03), // map
			mustPower(18000, 0.90, 0.03), // shuffle
		},
		HighRates: []float64{50000},
		LowRates:  []float64{20000},
		MaxTasks:  10,
		YMax:      150000,
	}
	return s, s.Validate()
})

// LearnedWordCount is the WordCount graph as a controller that does not
// know its selectivities sees it (the Theorem 2 setting): each edge is a
// LearnedLinear whose prior is WordCount's selectivity (2 on the map edge,
// 1 on the shuffle edge) times priorScale. It returns the graph and the
// map edge's learner.
func LearnedWordCount(priorScale float64) (*dag.Graph, *dag.LearnedLinear, error) {
	hs := []dag.ThroughputFunc{nil}
	var mapLearner *dag.LearnedLinear
	for _, k := range []float64{2, 1} {
		l, err := dag.NewLearnedLinear(k * priorScale)
		if err != nil {
			return nil, nil, err
		}
		if mapLearner == nil {
			mapLearner = l
		}
		hs = append(hs, l)
	}
	b := dag.NewBuilder()
	if err := b.Chain([]dag.NodeID{b.Source("source"), b.Operator("map"), b.Operator("shuffle"), b.Sink("sink")}, hs); err != nil {
		return nil, nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, mapLearner, nil
}

// WordCount2D is the WordCount pipeline with resource-aware capacity
// curves: capacity scales with both the task count and the per-pod CPU
// allocation (exponent 0.8 relative to the 1000m reference). Used by the
// vertical-scaling experiments, where the configuration space is the
// paper's full vector (executors × CPU).
func WordCount2D() (*Spec, error) { return clone(wordCount2D()) }

var wordCount2D = sync.OnceValues(func() (*Spec, error) {
	s, err := WordCount()
	if err != nil {
		return nil, err
	}
	s.Name = "wordcount2d"
	for i, m := range s.Models {
		scaled, err := streamsim.NewCPUScaledCurve(m, 1000, 0.8)
		if err != nil {
			return nil, err
		}
		s.Models[i] = scaled
	}
	// 2000m pods nearly double a pod's capacity, so the effective YMax
	// grows accordingly.
	s.YMax *= 2
	return s, s.Validate()
})

// Group is a single-operator aggregation: source → group → sink.
func Group() (*Spec, error) { return clone(group()) }

var group = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	src := b.Source("source")
	gr := b.Operator("group")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, gr, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:      "group",
		Graph:     g,
		Models:    []streamsim.CapacityModel{mustPower(11000, 0.8, 0.04)},
		HighRates: []float64{45000},
		LowRates:  []float64{18000},
		MaxTasks:  10,
		YMax:      100000,
	}
	return s, s.Validate()
})

// AsyncIO models an operator calling an external service: capacity
// saturates at the service's ceiling regardless of parallelism.
func AsyncIO() (*Spec, error) { return clone(asyncIO()) }

var asyncIO = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	src := b.Source("source")
	async := b.Operator("asyncio")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, async, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1)}); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	sat, err := streamsim.NewSaturatingCurve(mustPower(9000, 0.95, 0.02), 70000)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:      "asyncio",
		Graph:     g,
		Models:    []streamsim.CapacityModel{sat},
		HighRates: []float64{40000},
		LowRates:  []float64{15000},
		MaxTasks:  10,
		YMax:      100000,
	}
	return s, s.Validate()
})

// Join consumes two sources and emits at the rate of the slower side
// (Eq. 2b with unit weights).
func Join() (*Spec, error) { return clone(join()) }

var join = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	s1 := b.Source("bids")
	s2 := b.Source("auctions")
	jn := b.Operator("join")
	snk := b.Sink("sink")
	b.Edge(s1, jn, nil, 1)
	b.Edge(s2, jn, nil, 1)
	mr, err := dag.NewMinRate(1, 1)
	if err != nil {
		return nil, err
	}
	b.Edge(jn, snk, mr, 1)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:      "join",
		Graph:     g,
		Models:    []streamsim.CapacityModel{mustPower(8500, 0.85, 0.03)},
		HighRates: []float64{40000, 35000},
		LowRates:  []float64{16000, 14000},
		MaxTasks:  10,
		YMax:      100000,
	}
	return s, s.Validate()
})

// Window is a two-operator pipeline: source → window-assign → aggregate →
// sink.
func Window() (*Spec, error) { return clone(window()) }

var window = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	src := b.Source("source")
	wa := b.Operator("window-assign")
	agg := b.Operator("aggregate")
	snk := b.Sink("sink")
	if err := b.Chain([]dag.NodeID{src, wa, agg, snk}, []dag.ThroughputFunc{nil, dag.Selectivity(1), dag.Selectivity(1)}); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:  "window",
		Graph: g,
		Models: []streamsim.CapacityModel{
			mustPower(12000, 0.88, 0.03),
			mustPower(10000, 0.82, 0.04),
		},
		HighRates: []float64{42000},
		LowRates:  []float64{17000},
		MaxTasks:  10,
		YMax:      120000,
	}
	return s, s.Validate()
})

// Yahoo is the six-operator advertising pipeline of Fig. 3:
// kafka → deserialize → filter (selectivity 0.4) → project → redis-join →
// window-count → writer → redis sink. The redis-join capacity saturates
// (external store), which is what makes its configuration subtle.
func Yahoo() (*Spec, error) { return clone(yahoo()) }

var yahoo = sync.OnceValues(func() (*Spec, error) {
	b := dag.NewBuilder()
	src := b.Source("kafka")
	de := b.Operator("deserialize")
	fl := b.Operator("filter")
	pr := b.Operator("project")
	jn := b.Operator("redis-join")
	wc := b.Operator("window-count")
	wr := b.Operator("writer")
	snk := b.Sink("redis")
	hs := []dag.ThroughputFunc{
		nil,
		dag.Selectivity(1),   // deserialize → filter
		dag.Selectivity(0.4), // filter → project (irrelevant events dropped)
		dag.Selectivity(1),   // project → join
		dag.Selectivity(1),   // join → window
		dag.Selectivity(1),   // window → writer
		dag.Selectivity(1),   // writer → sink
	}
	if err := b.Chain([]dag.NodeID{src, de, fl, pr, jn, wc, wr, snk}, hs); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	joinCurve, err := streamsim.NewSaturatingCurve(mustPower(52000, 0.9, 0.02), 280000)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:  "yahoo",
		Graph: g,
		Models: []streamsim.CapacityModel{
			mustPower(90000, 0.85, 0.02), // deserialize (needs ~500k at high)
			mustPower(42000, 0.88, 0.03), // filter (output 0.4×input)
			mustPower(46000, 0.86, 0.03), // project
			joinCurve,                    // redis-join
			mustPower(45000, 0.84, 0.04), // window-count
			mustPower(48000, 0.88, 0.02), // writer
		},
		HighRates: []float64{500000},
		LowRates:  []float64{250000},
		MaxTasks:  10,
		YMax:      800000,
	}
	return s, s.Validate()
})

// kinds are the workloads All returns, in its order, under the names
// ByName resolves.
var kinds = []struct {
	name string
	spec func() (*Spec, error)
}{
	{"group", Group}, {"asyncio", AsyncIO}, {"join", Join},
	{"window", Window}, {"wordcount", WordCount}, {"yahoo", Yahoo},
}

// All returns every workload spec. With the two source-rate levels of each
// spec this covers the paper's "11 applications" sweep (the twelfth
// combination, Yahoo-low, the paper folds into §6.5).
func All() ([]*Spec, error) {
	out := make([]*Spec, 0, len(kinds))
	for _, k := range kinds {
		s, err := k.spec()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ByName returns the named workload spec.
func ByName(name string) (*Spec, error) {
	for _, k := range kinds {
		if k.name == name {
			return k.spec()
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// RateFunc returns the offered source rates at a (slot, second) position.
// The slice is read-only and valid only until the next call: a RateFunc
// may return its own storage (Constant, Cycle, StepAt and Trace return
// their fixed vectors; Sinusoid and Scale refill one buffer per call,
// which the simulator asks for every second), so a caller that keeps
// the rates must copy them. For the same reason a Sinusoid or Scale
// RateFunc must not be called from two goroutines at once.
type RateFunc func(slot, sec int) []float64

// Constant returns a profile with fixed rates.
func Constant(rates []float64) (RateFunc, error) {
	if len(rates) == 0 {
		return nil, errors.New("workload: empty rate vector")
	}
	cp := append([]float64(nil), rates...)
	return func(int, int) []float64 { return cp }, nil
}

// Cycle alternates between phases every periodSlots slots, starting with
// phases[0] (the Fig. 6 recurring high/low pattern).
func Cycle(periodSlots int, phases ...[]float64) (RateFunc, error) {
	if periodSlots < 1 || len(phases) == 0 {
		return nil, errors.New("workload: Cycle needs a positive period and at least one phase")
	}
	cp := make([][]float64, len(phases))
	for i, p := range phases {
		if len(p) == 0 {
			return nil, fmt.Errorf("workload: phase %d empty", i)
		}
		cp[i] = append([]float64(nil), p...)
	}
	return func(slot, _ int) []float64 {
		return cp[(slot/periodSlots)%len(cp)]
	}, nil
}

// StepAt switches from before to after at changeSlot (the Fig. 7 one-time
// scale-up).
func StepAt(changeSlot int, before, after []float64) (RateFunc, error) {
	if changeSlot < 0 || len(before) == 0 || len(after) == 0 {
		return nil, errors.New("workload: invalid StepAt parameters")
	}
	b := append([]float64(nil), before...)
	a := append([]float64(nil), after...)
	return func(slot, _ int) []float64 {
		if slot < changeSlot {
			return b
		}
		return a
	}, nil
}

// DefaultPeriod is the cycle phase length and step change slot, in
// slots, of a profile named without an explicit period.
const DefaultPeriod = 20

// Profile resolves a named offered-load profile over spec's two rate
// levels: "high" and "low" are constant, "cycle" alternates high and low
// every period slots, and "step" switches from low to high at slot
// period (the Fig. 6 and Fig. 7 patterns).
func Profile(spec *Spec, name string, period int) (RateFunc, error) {
	switch name {
	case "high":
		return Constant(spec.HighRates)
	case "low":
		return Constant(spec.LowRates)
	case "cycle":
		return Cycle(period, spec.HighRates, spec.LowRates)
	case "step":
		return StepAt(period, spec.LowRates, spec.HighRates)
	}
	return nil, fmt.Errorf("workload: unknown profile %q", name)
}

// PhaseBoundaries returns the slots (within [0, slots)) at which a profile
// changes its rate vector, always including slot 0 — the phase starts the
// convergence analysis uses.
func PhaseBoundaries(f RateFunc, slots int) []int {
	var out []int
	var prev []float64
	for s := 0; s < slots; s++ {
		cur := f(s, 0)
		if prev == nil || !equalRates(prev, cur) {
			out = append(out, s)
		}
		prev = append(prev[:0], cur...) // cur is valid only until the next call
	}
	return out
}

// PeakRates returns the per-source maximum of f over slots [0, slots),
// read at each slot's first second; rates beyond sources are ignored.
func PeakRates(f RateFunc, sources, slots int) []float64 {
	out := make([]float64, sources)
	for s := 0; s < slots; s++ {
		for i, r := range f(s, 0) {
			if i < len(out) && r > out[i] {
				out[i] = r
			}
		}
	}
	return out
}

func equalRates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
