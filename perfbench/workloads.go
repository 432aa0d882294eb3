package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dragster/internal/experiment"
	"dragster/internal/fleet"
	"dragster/internal/fleet/event"
	"dragster/internal/workload"
)

// instance is one freshly built Dragster system that the benchmark drives
// control round by control round.
type instance interface {
	// step runs one control round.
	step() error
	done() bool
	// check verifies the finished instance's outputs.
	check() error
	// fingerprint digests the outputs; an instance rebuilt from the same
	// seed must reproduce it exactly.
	fingerprint() uint64
	// work counts what the measured rounds did.
	work() workCounts
}

// builder makes an instance from its seed. The time it takes is the
// workload's set-up time.
type builder func(seed int64) (instance, error)

var workloads = map[string]builder{
	"paper-yahoo": buildPaperYahoo,
	"fleet-churn": buildFleetChurn,
}

// workCounts is the work done by an instance's measured rounds.
type workCounts struct {
	tenantRounds int // one per tenant that ran a round
	rescales     int // tenant rounds whose parallelism differs from the tenant's previous round
	events       int // fleet control-plane events committed
	admissions   int
	plans        int // capacity plans built at admission
}

func (w *workCounts) add(o workCounts) {
	w.tenantRounds += o.tenantRounds
	w.rescales += o.rescales
	w.events += o.events
	w.admissions += o.admissions
	w.plans += o.plans
}

// ---- paper-yahoo: one controller, the paper's Yahoo experiment ----

// Fig. 7 of the paper: 10-minute slots, the six-operator Yahoo pipeline
// stepping from its low to its high offered load mid-run, Dragster with
// the online saddle-point level 1 and the extended GP-UCB level 2.
const (
	yahooSlots       = 24
	yahooSlotSeconds = 600
	// yahooConverged is the share of a load phase's optimal steady
	// throughput the controller must reach by the phase's last slot.
	yahooConverged = 0.8
)

type yahooInstance struct {
	r    *experiment.Runner
	spec *workload.Spec
}

func buildPaperYahoo(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	spec, err := workload.Yahoo()
	if err != nil {
		return nil, err
	}
	// The seed moves both load levels by up to ±10% and the step by up to
	// two slots either way.
	low := jitter(rng, spec.LowRates, 0.1)
	high := jitter(rng, spec.HighRates, 0.1)
	rates, err := workload.StepAt(yahooSlots/2-2+rng.Intn(5), low, high)
	if err != nil {
		return nil, err
	}
	r, err := experiment.NewRunner(experiment.Scenario{
		Spec:             spec,
		Rates:            rates,
		Slots:            yahooSlots,
		SlotSeconds:      yahooSlotSeconds,
		Seed:             seed,
		PricePerCoreHour: 1.0,
	}, experiment.DragsterSaddle())
	if err != nil {
		return nil, err
	}
	return &yahooInstance{r: r, spec: spec}, nil
}

func jitter(rng *rand.Rand, rates []float64, share float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * (1 + share*(2*rng.Float64()-1))
	}
	return out
}

func (y *yahooInstance) step() error {
	_, err := y.r.Step()
	return err
}

func (y *yahooInstance) done() bool { return y.r.Done() }

func (y *yahooInstance) check() error {
	res := y.r.Result()
	if len(res.Trace) != yahooSlots {
		return fmt.Errorf("paper-yahoo: %d of %d slots recorded", len(res.Trace), yahooSlots)
	}
	var cost float64
	for _, tr := range res.Trace {
		if err := checkTasks(tr.Tasks, y.spec.MaxTasks); err != nil {
			return fmt.Errorf("paper-yahoo slot %d: %w", tr.Slot, err)
		}
		for _, v := range []float64{tr.SteadyThroughput, tr.MeasuredThroughput, tr.Processed, tr.Dropped, tr.CostCum} {
			if !nonNegative(v) {
				return fmt.Errorf("paper-yahoo slot %d: bad figure %v", tr.Slot, v)
			}
		}
		if tr.CostCum < cost {
			return fmt.Errorf("paper-yahoo slot %d: cumulative cost fell", tr.Slot)
		}
		cost = tr.CostCum
	}
	for i, start := range res.PhaseStarts {
		end := yahooSlots
		if i+1 < len(res.PhaseStarts) {
			end = res.PhaseStarts[i+1]
		}
		opt := res.OptimaByPhase[start]
		if got := res.Trace[end-1].SteadyThroughput; got < yahooConverged*opt.Throughput {
			return fmt.Errorf("paper-yahoo: phase from slot %d ends at %.0f tuples/s, optimum %.0f",
				start, got, opt.Throughput)
		}
	}
	return nil
}

func (y *yahooInstance) fingerprint() uint64 {
	h := fnv.New64a()
	for _, tr := range y.r.Result().Trace {
		fmt.Fprint(h, tr.Tasks, tr.SteadyThroughput, tr.MeasuredThroughput, tr.Processed, tr.CostCum, tr.TargetY, ";")
	}
	return h.Sum64()
}

func (y *yahooInstance) work() workCounts {
	var w workCounts
	var prev []int
	for _, tr := range y.r.Result().Trace {
		w.tenantRounds++
		if prev != nil && !equalInts(prev, tr.Tasks) {
			w.rescales++
		}
		prev = tr.Tasks
	}
	return w
}

// ---- fleet-churn: many tenants, one budget ----

// fleetKinds are the tenant applications: the paper's Nexmark-style
// suite and the Yahoo pipeline.
var fleetKinds = []func() (*workload.Spec, error){
	workload.WordCount, workload.Group, workload.AsyncIO, workload.Join, workload.Window, workload.Yahoo,
}

const fleetSlotSeconds = 60

// tenant builds a cold-floor tenant of kind k offering a constant load
// drawn between the kind's low and high rates.
func tenant(rng *rand.Rand, k int, name string) (fleet.JobSpec, error) {
	spec, err := fleetKinds[k%len(fleetKinds)]()
	if err != nil {
		return fleet.JobSpec{}, err
	}
	u := rng.Float64()
	rates := make([]float64, len(spec.LowRates))
	for i := range rates {
		rates[i] = spec.LowRates[i] + u*(spec.HighRates[i]-spec.LowRates[i])
	}
	rf, err := workload.Constant(rates)
	if err != nil {
		return fleet.JobSpec{}, err
	}
	return fleet.JobSpec{Name: name, Workload: spec, Rates: rf, Priority: float64(1 + rng.Intn(3))}, nil
}

func floors(jobs []fleet.JobSpec) int {
	n := 0
	for _, j := range jobs {
		n += j.Workload.Graph.NumOperators()
	}
	return n
}

// fleetInput is an external input posted to the fleet inbox before a
// round: a dynamic submission or a kill.
type fleetInput struct {
	submit *fleet.JobSpec
	kill   string
}

type fleetInstance struct {
	m        *fleet.Manager
	budget   int
	rounds   int
	inputs   map[int][]fleetInput // by the round they are posted before
	maxTasks map[string]int       // per tenant, from its workload
}

// startFleet builds the manager and runs its admission round, which
// builds every initial tenant's stack; both are set-up, not measured
// rounds.
func startFleet(cfg fleet.Config, inputs map[int][]fleetInput) (*fleetInstance, error) {
	m, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleetInstance{m: m, budget: cfg.TotalTaskBudget, rounds: cfg.Slots, inputs: inputs,
		maxTasks: make(map[string]int)}
	for _, j := range cfg.Jobs {
		f.maxTasks[j.Name] = j.Workload.MaxTasks
	}
	for _, ins := range inputs {
		for _, in := range ins {
			if in.submit != nil {
				f.maxTasks[in.submit.Name] = in.submit.Workload.MaxTasks
			}
		}
	}
	if err := f.step(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fleetInstance) step() error {
	for _, in := range f.inputs[f.m.Round()] {
		var err error
		if in.submit != nil {
			err = f.m.Submit(*in.submit)
		} else {
			err = f.m.Kill(in.kill)
		}
		if err != nil {
			return err
		}
	}
	return f.m.Step()
}

func (f *fleetInstance) done() bool { return f.m.Done() }

func (f *fleetInstance) fingerprint() uint64 { return f.m.TraceHash() }

func (f *fleetInstance) check() error {
	res := f.m.Result()
	if res.BudgetOverruns != 0 {
		return fmt.Errorf("%d rounds over the task budget", res.BudgetOverruns)
	}
	if len(res.TotalTasksByRound) != f.rounds {
		return fmt.Errorf("%d of %d rounds recorded", len(res.TotalTasksByRound), f.rounds)
	}
	for r, n := range res.TotalTasksByRound {
		if n > f.budget {
			return fmt.Errorf("round %d runs %d tasks over a budget of %d", r, n, f.budget)
		}
	}
	ends := 0
	for i, e := range f.m.Events() {
		if e.Seq != uint64(i+1) {
			return fmt.Errorf("event %d carries seq %d", i+1, e.Seq)
		}
		if e.Type == event.TypeRoundEnd {
			ends++
		}
	}
	if ends != f.rounds {
		return fmt.Errorf("%d round_end events for %d rounds", ends, f.rounds)
	}
	admitted := 0
	for _, j := range res.Jobs {
		if j.AdmitSlot < 0 {
			if len(j.Rounds) > 0 {
				return fmt.Errorf("job %s ran without being admitted", j.Name)
			}
			continue
		}
		admitted++
		end := f.rounds
		if j.DepartSlot >= 0 {
			end = j.DepartSlot
		}
		if len(j.Rounds) != end-j.AdmitSlot {
			return fmt.Errorf("job %s ran %d rounds between admission at %d and %d", j.Name, len(j.Rounds), j.AdmitSlot, end)
		}
		var cost float64
		for _, jr := range j.Rounds {
			if err := checkTasks(jr.Tasks, f.maxTasks[j.Name]); err != nil {
				return fmt.Errorf("job %s round %d: %w", j.Name, jr.Round, err)
			}
			if !nonNegative(jr.Steady) || !nonNegative(jr.Measured) || jr.CostCum < cost {
				return fmt.Errorf("job %s round %d: bad figures", j.Name, jr.Round)
			}
			cost = jr.CostCum
		}
	}
	if admitted == 0 {
		return errors.New("no tenant was admitted")
	}
	return nil
}

func (f *fleetInstance) work() workCounts {
	var w workCounts
	for _, j := range f.m.Result().Jobs {
		var prev []int
		for _, jr := range j.Rounds {
			if jr.Round >= 1 {
				w.tenantRounds++
				if prev != nil && !equalInts(prev, jr.Tasks) {
					w.rescales++
				}
			}
			prev = jr.Tasks
		}
	}
	for _, e := range f.m.Events() {
		if e.Round < 1 {
			continue
		}
		w.events++
		switch e.Type {
		case event.TypeAdmit:
			w.admissions++
		case event.TypePlan:
			w.plans++
		}
	}
	return w
}

// fleet-churn: tenants arrive on a schedule and through the inbox, some
// plan their admission, and tenants leave on a schedule or are killed,
// so admission, planning, warm-starts and rebalancing run every round.
const (
	churnInitial = 12
	churnRounds  = 12 // measured rounds after the admission round
)

func buildFleetChurn(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []fleet.JobSpec
	for i := 0; i < churnInitial; i++ {
		js, err := tenant(rng, i, fmt.Sprintf("init-%02d", i))
		if err != nil {
			return nil, err
		}
		if rng.Intn(3) == 0 {
			js.DepartSlot = 2 + rng.Intn(churnRounds-1)
		}
		jobs = append(jobs, js)
	}
	initialFloors := floors(jobs)
	// Arrivals are drawn from the smaller kinds so a planned grant never
	// blocks the admission queue for the rest of the run.
	arrivalKinds := len(fleetKinds) - 1
	for r := 1; r <= churnRounds; r++ {
		js, err := tenant(rng, rng.Intn(arrivalKinds), fmt.Sprintf("arrive-%02d", r))
		if err != nil {
			return nil, err
		}
		js.ArriveSlot = r
		if life := 3 + rng.Intn(5); r+life <= churnRounds {
			js.DepartSlot = r + life
		}
		js.PlanOnAdmit = r%3 == 0
		jobs = append(jobs, js)
	}
	inputs := make(map[int][]fleetInput)
	for r := 2; r <= churnRounds; r += 2 {
		js, err := tenant(rng, rng.Intn(arrivalKinds), fmt.Sprintf("submit-%02d", r))
		if err != nil {
			return nil, err
		}
		inputs[r] = append(inputs[r],
			fleetInput{submit: &js},
			fleetInput{kill: fmt.Sprintf("init-%02d", rng.Intn(churnInitial))})
	}
	return startFleet(fleet.Config{
		Jobs:            jobs,
		Slots:           churnRounds + 1,
		SlotSeconds:     fleetSlotSeconds,
		Seed:            seed,
		TotalTaskBudget: 4 * initialFloors,
	}, inputs)
}

// ---- shared checks ----

func checkTasks(tasks []int, max int) error {
	for i, n := range tasks {
		if n < 1 || n > max {
			return fmt.Errorf("operator %d runs %d tasks, outside [1, %d]", i, n, max)
		}
	}
	return nil
}

func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }

func equalInts(a, b []int) bool {
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
