// Package fleet is Dragster's multi-job control plane: it runs N
// concurrent core.Controller instances — one per streaming job — against
// one shared simulated Kubernetes cluster and arbitrates the global
// resource budget between them.
//
// The paper (and the rest of this repo) optimizes one job against one
// cluster; production stream platforms run many jobs that compete for the
// same budget. The fleet manager adds the three pieces that competition
// needs:
//
//   - an admission controller that queues or rejects job submissions
//     against the remaining cluster capacity and task budget;
//   - a deterministic budget arbiter that periodically re-partitions the
//     global Σ-tasks budget across jobs using each job's OSP dual price
//     (a high shadow price means the job's long-term buffer constraint is
//     binding, i.e. it is starved — so it receives more budget), with
//     per-job floors, priorities, and hysteresis to prevent thrash;
//   - cross-job GP warm-start: when a job joins, its per-operator
//     gp.Regressor state is seeded from the capacity history of
//     DAG-compatible jobs that ran before it, so new tenants skip the
//     cold-start exploration phase.
//
// The control plane is event-driven: every externally injected input
// (dynamic submission, kill) enters through an ordered message set, and
// every state transition the round loop commits — arrivals, admissions,
// rejections, budget grants, shrinks, decisions, departures — is
// appended to a sequence-numbered event log with a canonical binary
// encoding. The log is the behavioural identity of a run: two runs are
// the same iff their trace bytes are equal, which is how the tests prove
// that the decide fan-out's worker count and mid-run failover are both
// invisible to the outcome. Per-tenant decide steps fan out through
// par.For; events are only ever emitted from the sequential section of
// the round loop, never from worker goroutines.
//
// Everything is deterministic at a fixed seed: jobs are processed in a
// stable order, the arbiter is a pure function of observable state, and
// the per-round decide fan-out joins before any shared state is touched.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/chaos"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/fleet/event"
	"dragster/internal/flink"
	"dragster/internal/mathx"
	"dragster/internal/monitor"
	"dragster/internal/par"
	"dragster/internal/planner"
	"dragster/internal/store"
	"dragster/internal/telemetry"
	"dragster/internal/tenant"
	"dragster/internal/workload"
)

// JobStatus is a tenant's lifecycle state.
type JobStatus int

// Job lifecycle: Pending jobs have not yet arrived; Queued jobs passed
// submission but wait for capacity; Running jobs hold a stack and a
// budget share; Departed jobs were cancelled (scheduled departure or
// kill); Rejected jobs were refused at submission.
const (
	StatusPending JobStatus = iota
	StatusQueued
	StatusRunning
	StatusDeparted
	StatusRejected
)

// String implements fmt.Stringer.
func (s JobStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDeparted:
		return "departed"
	case StatusRejected:
		return "rejected"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// JobSpec describes one tenant of the fleet.
type JobSpec struct {
	// Name identifies the job; must be unique within the fleet.
	Name string
	// Workload supplies the DAG, ground-truth capacity models, and grid
	// bounds (same contract as a single-job experiment).
	Workload *workload.Spec
	// Rates is the offered-load profile, indexed by the job's own slot
	// count (slot 0 = the job's first round after admission).
	Rates workload.RateFunc
	// ArriveSlot is the fleet round at which the job is submitted
	// (0 = present from the start).
	ArriveSlot int
	// DepartSlot, when positive, cancels the job at the start of that
	// fleet round (it does not run that round).
	DepartSlot int
	// Priority weights the job in the budget arbiter (default 1; higher
	// values attract proportionally more surplus budget).
	Priority float64
	// PlanOnAdmit runs the capacity planner when the job reaches the head
	// of the admission queue: the admission grant and initial
	// configuration come from the fitted plan instead of the cold floor
	// (one task per operator), the plan's probe observations seed the
	// tenant's GP warm-start store, and the plan is journaled as a
	// TypePlan event so replay and failover stay byte-identical.
	PlanOnAdmit bool
	// TargetRates is the sustained per-source load the plan must cover
	// (default: the profile's per-source peak over the fleet horizon).
	// Only meaningful with PlanOnAdmit.
	TargetRates []float64
}

func (j *JobSpec) validate() error {
	if j.Name == "" {
		return errors.New("fleet: job without a name")
	}
	if j.Workload == nil || j.Rates == nil {
		return fmt.Errorf("fleet: job %s needs a Workload and a RateFunc", j.Name)
	}
	if err := j.Workload.Validate(); err != nil {
		return fmt.Errorf("fleet: job %s: %w", j.Name, err)
	}
	if j.ArriveSlot < 0 || j.DepartSlot < 0 {
		return fmt.Errorf("fleet: job %s: negative arrival/departure slot", j.Name)
	}
	if j.DepartSlot > 0 && j.DepartSlot <= j.ArriveSlot {
		return fmt.Errorf("fleet: job %s departs at round %d before arriving at %d", j.Name, j.DepartSlot, j.ArriveSlot)
	}
	if j.Priority < 0 || math.IsNaN(j.Priority) || math.IsInf(j.Priority, 0) {
		return fmt.Errorf("fleet: job %s: priority %v is negative or not finite", j.Name, j.Priority)
	}
	if j.TargetRates != nil {
		if len(j.TargetRates) != j.Workload.Graph.NumSources() {
			return fmt.Errorf("fleet: job %s: got %d target rates, want %d", j.Name, len(j.TargetRates), j.Workload.Graph.NumSources())
		}
		for i, r := range j.TargetRates {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("fleet: job %s: target rate %d = %v invalid", j.Name, i, r)
			}
		}
	}
	return nil
}

// floor is the minimum Σ-tasks allocation that keeps the job alive: one
// task per operator.
func (j *JobSpec) floor() int { return j.Workload.Graph.NumOperators() }

// maxUseful is the largest Σ-tasks budget the job can convert into
// capacity; budget beyond it is pure slack.
func (j *JobSpec) maxUseful() int {
	return j.Workload.Graph.NumOperators() * j.Workload.MaxTasks
}

// Config assembles a fleet Manager.
type Config struct {
	// Jobs are the tenants, with their arrival/departure schedule.
	// Dynamic tenants can additionally be submitted at runtime via
	// Manager.Submit (the daemon surface).
	Jobs []JobSpec
	// Slots is the number of fleet rounds to run.
	Slots int
	// SlotSeconds is the round length in simulated seconds (default 600).
	SlotSeconds int
	// Seed drives all stochastic behaviour (default 1). Each job's
	// dataflow noise uses an independent deterministic stream derived
	// from it.
	Seed int64
	// TotalTaskBudget is the global Σ_jobs Σ_ops tasks bound the arbiter
	// partitions (required).
	TotalTaskBudget int
	// Arbitration selects the budget re-partitioning rule (default
	// DualPrice; EqualSplit is the static baseline).
	Arbitration Arbitration
	// RebalanceEvery re-runs the arbiter every that many rounds (default
	// 3). Membership changes (admission, departure) always trigger one.
	RebalanceEvery int
	// MaxGrowTasks bounds how much one rebalance may grow a single job's
	// budget (default 4); shrinks are not bounded, so the global invariant
	// is restored immediately.
	MaxGrowTasks int
	// MaxQueue bounds the admission queue; submissions beyond it are
	// rejected (default 8).
	MaxQueue int
	// Chaos, when set, replays a fault schedule through a seeded engine
	// installed on the shared cluster (node crashes, scheduler delays —
	// the cluster-level faults every tenant feels).
	Chaos *chaos.Spec
	// Metrics receives the fleet's counters and gauges (admissions,
	// faults, retries, per-job budget shares, queue depth, arbiter
	// decisions). Defaults to a fresh registry; when a Tracer with an
	// attached registry is supplied, that registry wins so traces and
	// metrics stay in one place.
	Metrics *telemetry.Registry
	// Tracer, when set, records a sim-time span trace of the fleet run
	// with per-job labelled spans. Tracing serializes the per-round decide
	// fan-out (the Tracer is single-threaded by contract), so traced runs
	// trade parallelism for byte-identical traces.
	Tracer *telemetry.Tracer
}

func (c *Config) setDefaults() error {
	if len(c.Jobs) == 0 {
		return errors.New("fleet: no jobs")
	}
	seen := make(map[string]bool, len(c.Jobs))
	for i := range c.Jobs {
		if err := c.Jobs[i].validate(); err != nil {
			return err
		}
		if seen[c.Jobs[i].Name] {
			return fmt.Errorf("fleet: duplicate job name %q", c.Jobs[i].Name)
		}
		seen[c.Jobs[i].Name] = true
		if c.Jobs[i].Priority == 0 {
			c.Jobs[i].Priority = 1
		}
	}
	if c.Slots < 1 {
		return errors.New("fleet: Slots must be ≥ 1")
	}
	if c.SlotSeconds == 0 {
		c.SlotSeconds = 600
	}
	if c.SlotSeconds < 1 {
		return errors.New("fleet: SlotSeconds must be ≥ 1")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TotalTaskBudget < 1 {
		return errors.New("fleet: TotalTaskBudget must be ≥ 1")
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 3
	}
	if c.RebalanceEvery < 1 {
		return errors.New("fleet: RebalanceEvery must be ≥ 1")
	}
	if c.MaxGrowTasks == 0 {
		c.MaxGrowTasks = 4
	}
	if c.MaxGrowTasks < 1 {
		return errors.New("fleet: MaxGrowTasks must be ≥ 1")
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 1 {
		return errors.New("fleet: MaxQueue must be ≥ 1")
	}
	if c.Chaos != nil {
		if err := c.Chaos.Validate(); err != nil {
			return err
		}
	}
	if c.Tracer != nil && c.Tracer.Metrics() != nil {
		c.Metrics = c.Tracer.Metrics()
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return nil
}

// JobRound is one fleet round of one running job, recorded from the
// tenant's own accounting of the slot it just ran, before the round's
// decision: like experiment.SlotTrace, it charges the round for the
// allocation that ran it.
type JobRound struct {
	Round     int       // fleet round index
	Rates     []float64 // offered load that round
	Tasks     []int     // effective parallelism during the round
	Budget    int       // the job's Σ-tasks budget share during the round
	Steady    float64   // noise-free steady throughput of Tasks at Rates
	Measured  float64   // what the sink actually saw during the round
	CostCum   float64   // job-attributed dollars, each round charged at its Tasks
	DualPrice float64   // mean positive dual the round ran under
}

// JobResult is the full fleet history of one tenant.
type JobResult struct {
	Name             string
	Workload         string
	Status           JobStatus
	ArriveSlot       int
	AdmitSlot        int     // -1 if never admitted
	DepartSlot       int     // -1 if still running at the end
	WarmStartRecords int     // archive records seeded at admission
	Planned          bool    // admission grant came from a capacity plan
	PlanDigest       string  // canonical plan digest (empty for cold-floor)
	Cost             float64 // attributed dollars over the job's lifetime
	Rounds           []JobRound
}

// Result is a full fleet run.
type Result struct {
	Arbitration       Arbitration
	Slots             int
	TotalTaskBudget   int
	Jobs              []JobResult // Config.Jobs order, then dynamic submissions
	TotalTasksByRound []int       // Σ effective tasks across jobs after each round's decisions
	BudgetOverruns    int         // rounds where that sum exceeded the budget
	ClusterCost       float64
	SkippedRounds     int
	Metrics           *telemetry.Registry // the run's one registry
}

// jobState is the Manager's per-tenant bookkeeping.
type jobState struct {
	idx  int
	spec JobSpec
	// committed reports that the tenant's submission has been delivered
	// through the inbox and appears in the event trace; only committed
	// tenants are visible to admission. Config-declared tenants are
	// committed from construction, dynamic ones at the drain that starts
	// their arrival round.
	committed bool

	// t is the tenant's engine, Flink job, monitor, controller and
	// retrier (nil until admission).
	t *tenant.Tenant

	// db is the job's private history database (seeded from the kind
	// archive at admission; the controller appends to it during Decide
	// and harvest drains it every round). nil before admission and
	// after departure, like t.
	db *store.DB

	// plan is the capacity plan built when a PlanOnAdmit tenant first
	// reached the head of the admission queue (nil for cold-floor
	// tenants). Memoized so blocked rounds never re-probe or re-journal.
	plan *planner.Plan

	// shareGauge and priceGauge are the job's labelled /metrics series
	// names, encoded once at registration rather than every round.
	shareGauge, priceGauge string

	// kind is the workload fingerprint that keys the job's warm-start
	// archive, encoded once at registration rather than every harvest.
	kind string

	budget int // current Σ-tasks share
	usage  int // Σ desired tasks last applied
	need   int // Σ tasks demand estimate from the last snapshot (0 = none yet)
	res    *JobResult
}

// Manager owns the shared cluster and drives the fleet one round at a
// time. It is not safe for concurrent use; the daemon serializes access.
type Manager struct {
	cfg     Config
	k8s     *cluster.Cluster
	session *flink.SessionCluster
	chaos   *chaos.Engine
	tracer  *telemetry.Tracer
	reg     *telemetry.Registry

	jobs    []*jobState // all tenants ever seen, submission order
	byName  map[string]*jobState
	queue   []*jobState // admission queue, FIFO
	running []*jobState // admission order
	archive *warmArchive
	round   int
	res     *Result
	kills   map[string]bool // names marked for departure next round

	log *event.Log // committed control-plane history (the trace)
	// inbox holds the external inputs awaiting the next round's drain.
	// Every input comes through Submit or Kill, which the caller
	// serializes, so the queue is in delivery order. The drain journals
	// each input, so the trace plus the inbox is the whole input record a
	// checkpoint replays.
	inbox   []event.Event
	deduped int // duplicate pending kills dropped
}

// New validates cfg and builds the shared substrate (cluster, Flink
// session, chaos engine). Jobs are admitted as they arrive during Run.
func New(cfg Config) (*Manager, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		tracer:  cfg.Tracer,
		reg:     cfg.Metrics,
		byName:  make(map[string]*jobState),
		archive: newWarmArchive(),
		kills:   make(map[string]bool),
		log:     event.NewLog(),
	}
	// Size for the budget plus the JobManager, at ~4 task slots per node,
	// with one spare so single-node failures degrade rather than wedge the
	// fleet.
	nNodes := (cfg.TotalTaskBudget+1)/4 + 2
	m.k8s = cluster.New()
	if err := m.k8s.AddNodes("node", nNodes, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		return nil, err
	}
	m.tracer.SetClock(m.k8s.Clock)
	m.k8s.SetTracer(m.tracer)
	session, err := flink.NewSession(m.k8s, flink.DefaultOptions())
	if err != nil {
		return nil, err
	}
	m.session = session
	if cfg.Chaos != nil {
		eng, err := chaos.NewEngine(cfg.Chaos, cfg.Seed+chaos.SeedOffset, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		eng.SetTracer(m.tracer)
		// Fleet chaos is cluster-scoped: node crashes, scheduler delays,
		// OOM kills — the faults every tenant shares. Per-job savepoint
		// and metrics faults stay a single-job scenario concern.
		if err := eng.Install(m.k8s, nil, nil); err != nil {
			return nil, err
		}
		m.chaos = eng
	}
	m.res = &Result{
		Arbitration:     cfg.Arbitration,
		Slots:           cfg.Slots,
		TotalTaskBudget: cfg.TotalTaskBudget,
		Metrics:         cfg.Metrics,
	}
	for _, spec := range cfg.Jobs {
		m.addJob(spec, true)
	}
	return m, nil
}

// addJob registers a pending tenant in submission order.
func (m *Manager) addJob(spec JobSpec, committed bool) {
	js := &jobState{
		idx:        len(m.jobs),
		spec:       spec,
		committed:  committed,
		shareGauge: telemetry.Label("fleet_budget_share", "job", spec.Name),
		priceGauge: telemetry.Label("fleet_dual_price", "job", spec.Name),
		kind:       fingerprint(spec.Workload),
		res: &JobResult{
			Name:       spec.Name,
			Workload:   spec.Workload.Name,
			Status:     StatusPending,
			ArriveSlot: spec.ArriveSlot,
			AdmitSlot:  -1,
			DepartSlot: -1,
		},
	}
	m.jobs = append(m.jobs, js)
	m.byName[spec.Name] = js
}

// Metrics exposes the fleet's one metrics registry (admission, fault and
// retry counters, budget shares, queue depth, arbiter decisions) — the
// daemon serves it at GET /metrics.
func (m *Manager) Metrics() *telemetry.Registry { return m.reg }

// Round returns the next round index to run.
func (m *Manager) Round() int { return m.round }

// Done reports whether every round has run.
func (m *Manager) Done() bool { return m.round >= m.cfg.Slots }

// Result returns the result accumulated so far (shared, not a copy).
// Job statuses and cluster cost are refreshed on every call.
func (m *Manager) Result() *Result {
	m.res.Jobs = m.Jobs()
	m.res.ClusterCost = m.k8s.Cost()
	return m.res
}

func jobCost(js *jobState) float64 {
	if n := len(js.res.Rounds); n > 0 {
		return js.res.Rounds[n-1].CostCum
	}
	return 0
}

// Submit adds a dynamic tenant (the daemon's POST /fleet/jobs surface):
// the submission waits in the fleet inbox and is committed to the event
// trace at the start of the next round, when the job arrives. Returns an
// error when the name is taken or the spec is invalid.
func (m *Manager) Submit(spec JobSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if _, ok := m.byName[spec.Name]; ok {
		return fmt.Errorf("fleet: job %q already exists", spec.Name)
	}
	if spec.Priority == 0 {
		spec.Priority = 1
	}
	spec.ArriveSlot = m.round
	m.addJob(spec, false)
	m.inbox = append(m.inbox, event.Event{Type: event.TypeSubmit, Job: spec.Name})
	return nil
}

// Kill marks a job for departure at the start of the next round (the
// daemon's kill surface). Unknown names error; already-departed jobs and
// duplicate kills are a no-op.
func (m *Manager) Kill(name string) error {
	js, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("fleet: unknown job %q", name)
	}
	if js.res.Status == StatusDeparted || js.res.Status == StatusRejected {
		return nil
	}
	for _, e := range m.inbox {
		if e.Type == event.TypeKill && e.Job == name {
			m.deduped++
			return nil // a kill for this job is already pending; idempotent
		}
	}
	m.inbox = append(m.inbox, event.Event{Type: event.TypeKill, Job: name})
	return nil
}

// Events returns the committed control-plane event trace so far.
func (m *Manager) Events() []event.Event { return m.log.Events() }

// TraceBytes returns the canonical binary encoding of the event trace.
// Two runs are behaviourally identical iff these bytes are equal — the
// property the worker-count and failover tests pin.
func (m *Manager) TraceBytes() []byte { return m.log.Bytes() }

// TraceText renders the trace one line per event (golden files, debugging).
func (m *Manager) TraceText() string { return m.log.Text() }

// TraceHash returns the FNV-1a hash of the canonical trace encoding.
func (m *Manager) TraceHash() uint64 { return m.log.Hash() }

// emit commits one event to the control-plane log at the current round.
// Emission only ever happens on the sequential section of the round
// loop, so sequence numbers are dense and deterministic.
func (m *Manager) emit(typ event.Type, job, note string, args ...int64) {
	m.log.Emit(event.Event{Round: m.round, Type: typ, Job: job, Args: args, Note: note})
}

// drainInbox delivers the round's external inputs: messages posted since
// the previous round arrive in post order and become part of the event
// trace. Dynamic submissions become visible to admission; kills
// are marked for the departure pass that follows.
func (m *Manager) drainInbox() {
	for _, msg := range m.inbox {
		switch msg.Type {
		case event.TypeSubmit:
			if js, ok := m.byName[msg.Job]; ok {
				js.committed = true
			}
			m.emit(event.TypeSubmit, msg.Job, "")
		case event.TypeKill:
			m.kills[msg.Job] = true
			m.emit(event.TypeKill, msg.Job, "")
		}
	}
	m.inbox = m.inbox[:0]
}

// Jobs returns a snapshot of every tenant's result (submission order).
func (m *Manager) Jobs() []JobResult {
	out := make([]JobResult, 0, len(m.jobs))
	for _, js := range m.jobs {
		jr := *js.res
		jr.Cost = jobCost(js)
		out = append(out, jr)
	}
	return out
}

// PlanFor returns the capacity plan journaled for a tenant at
// admission, or nil for cold-floor tenants (and unknown names). The
// daemon's plan endpoint reads this.
func (m *Manager) PlanFor(name string) *planner.Plan {
	js, ok := m.byName[name]
	if !ok {
		return nil
	}
	return js.plan
}

// QueueDepth returns the current admission queue length.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Run executes every remaining round.
func (m *Manager) Run() (*Result, error) {
	for !m.Done() {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Result(), nil
}

// Step runs one fleet round: departures, arrivals, admission, budget
// arbitration, co-simulated slot execution, per-job decisions, and
// bookkeeping.
func (m *Manager) Step() error {
	if m.Done() {
		return errors.New("fleet: manager already finished")
	}
	r := m.round
	m.tracer.SetSlot(r)
	round := m.tracer.Begin("fleet", "round", telemetry.Int("round", r))
	defer round.End()

	m.emit(event.TypeRoundBegin, "", "", int64(len(m.running)))
	m.drainInbox()
	departed := m.processDepartures(r)
	m.processArrivals(r)
	admitted, err := m.admitQueued(r)
	if err != nil {
		return err
	}
	if departed || admitted || r%m.cfg.RebalanceEvery == 0 {
		if err := m.rebalance(); err != nil {
			return err
		}
	}
	if m.chaos != nil {
		m.chaos.BeginSlot(r)
	}

	if err := m.runSlots(r); err != nil {
		return err
	}
	if err := m.collect(); err != nil {
		return err
	}
	if err := m.decideAll(); err != nil {
		return err
	}
	if err := m.applyDecisions(); err != nil {
		return err
	}
	m.harvest()
	total := m.record()
	m.gauges()
	m.emit(event.TypeRoundEnd, "", "", int64(total))
	m.reg.Inc("fleet_rounds")
	m.round++
	return nil
}

// processDepartures cancels jobs whose departure round has come (or that
// were killed via Kill), reporting whether membership changed.
func (m *Manager) processDepartures(r int) (departed bool) {
	keep := m.running[:0]
	for _, js := range m.running {
		due := (js.spec.DepartSlot > 0 && r >= js.spec.DepartSlot) || m.kills[js.spec.Name]
		if !due {
			keep = append(keep, js)
			continue
		}
		m.departJob(js, r)
		departed = true
	}
	m.running = keep
	// Queued or pending jobs can be killed before ever running.
	qkeep := m.queue[:0]
	for _, js := range m.queue {
		due := (js.spec.DepartSlot > 0 && r >= js.spec.DepartSlot) || m.kills[js.spec.Name]
		if !due {
			qkeep = append(qkeep, js)
			continue
		}
		js.res.Status = StatusDeparted
		js.res.DepartSlot = r
		m.emit(event.TypeDepart, js.spec.Name, "queued")
	}
	m.queue = qkeep
	// A kill can land before the job ever arrives (still pending); mark
	// it departed now or the kill would be lost when the map is cleared.
	for _, js := range m.jobs {
		if js.res.Status == StatusPending && m.kills[js.spec.Name] {
			js.res.Status = StatusDeparted
			js.res.DepartSlot = r
			m.emit(event.TypeDepart, js.spec.Name, "pending")
		}
	}
	for name := range m.kills {
		delete(m.kills, name)
	}
	return departed
}

func (m *Manager) departJob(js *jobState, r int) {
	if err := m.session.CancelJob(js.spec.Name); err != nil {
		// Only possible if the job was already cancelled — a manager bug;
		// surface via counters rather than silently diverging.
		m.reg.Inc("fleet_cancel_errors")
	}
	js.res.Status = StatusDeparted
	js.res.DepartSlot = r
	js.budget = 0
	// Only m.running reaches a tenant's stack, so a departed one keeps
	// none: its engine, controller and history DB are released.
	js.t, js.db = nil, nil
	// A departed tenant holds no share, so its labelled series leave
	// /metrics rather than report their last values forever.
	m.reg.DeleteGauge(js.shareGauge)
	m.reg.DeleteGauge(js.priceGauge)
	m.emit(event.TypeDepart, js.spec.Name, "")
	m.tracer.Event("fleet", "depart", telemetry.Str("job", js.spec.Name), telemetry.Int("round", r))
	m.reg.Inc("fleet_jobs_departed")
}

// processArrivals moves due tenants into the admission queue, rejecting
// the ones that can never fit or that overflow the queue.
func (m *Manager) processArrivals(r int) {
	for _, js := range m.jobs {
		if js.res.Status != StatusPending || !js.committed || r < js.spec.ArriveSlot {
			continue
		}
		if js.spec.floor() > m.cfg.TotalTaskBudget {
			m.reject(js, fmt.Sprintf("floor %d exceeds total budget %d", js.spec.floor(), m.cfg.TotalTaskBudget))
			continue
		}
		if len(m.queue) >= m.cfg.MaxQueue {
			m.reject(js, fmt.Sprintf("admission queue full (%d)", m.cfg.MaxQueue))
			continue
		}
		js.res.Status = StatusQueued
		m.queue = append(m.queue, js)
		m.emit(event.TypeArrive, js.spec.Name, "")
	}
}

func (m *Manager) reject(js *jobState, why string) {
	js.res.Status = StatusRejected
	m.emit(event.TypeReject, js.spec.Name, why)
	m.tracer.Event("fleet", "reject", telemetry.Str("job", js.spec.Name), telemetry.Str("reason", why))
	m.reg.Inc("fleet_jobs_rejected")
}

// runSlots co-simulates one decision slot for every running tenant, each
// at its own slot index, and appends each tenant's round row from the
// slot's own accounting. The first running tenant owns the shared
// cluster clock (see flink.Job.RunSlotDetached); with no tenants the
// manager ticks it directly so cost and chaos schedules stay on sim time.
func (m *Manager) runSlots(r int) error {
	if len(m.running) == 0 {
		m.k8s.Tick(int64(m.cfg.SlotSeconds))
		return nil
	}
	secs := float64(m.cfg.SlotSeconds)
	for i, js := range m.running {
		rep, use, err := js.t.RunSlot(m.cfg.SlotSeconds, i == 0)
		if err != nil {
			return fmt.Errorf("fleet: job %s round %d: %w", js.spec.Name, r, err)
		}
		// Attributed cost: the CPU this job's pods reserved for the round.
		var cpuMilli int
		for k, n := range use.Tasks {
			cpuMilli += n * use.CPUMilli[k]
		}
		js.res.Rounds = append(js.res.Rounds, JobRound{
			Round:     r,
			Rates:     append([]float64(nil), js.t.Rates()...),
			Tasks:     use.Tasks,
			Budget:    js.budget,
			Steady:    use.Steady,
			Measured:  rep.Throughput,
			CostCum:   jobCost(js) + float64(cpuMilli)/1000*secs/3600*m.k8s.PricePerCoreHour(),
			DualPrice: dualPrice(js.t.Controller().Duals()),
		})
	}
	return nil
}

// collect fetches each running tenant's monitor snapshot sequentially
// (the tracer and monitor are single-threaded) and refreshes its demand
// estimate from it. A tenant whose metrics pipeline had no fresh sample
// skips its decision round and keeps its last estimate.
func (m *Manager) collect() error {
	for _, js := range m.running {
		fresh, err := js.t.Collect()
		if err != nil {
			return fmt.Errorf("fleet: job %s: %w", js.spec.Name, err)
		}
		if !fresh {
			m.res.SkippedRounds++
			m.reg.Inc("fleet_skipped_rounds")
			continue
		}
		js.need = estimateNeed(js.t.Snapshot(), js.spec.Workload.MaxTasks)
	}
	return nil
}

// decideAll runs every tenant's Algorithm-2 pass for the round. The
// tenants are independent (each owns its GPs, duals, and a private
// history DB), so the passes fan out through par.For, one goroutine per
// CPU. The registry the controllers share is concurrent-safe and
// order-insensitive, and each decision stays on its tenant until the
// sequential apply pass reads them in admission order, so the round is
// byte-identical at any worker count. A tracer serializes the fan-out
// (span emission is single-threaded by contract), visiting tenants in
// admission order.
func (m *Manager) decideAll() error {
	errs := make([]error, len(m.running))
	decideOne := func(i int) {
		js := m.running[i]
		if err := js.t.Decide(); err != nil {
			errs[i] = fmt.Errorf("fleet: job %s decide: %w", js.spec.Name, err)
		}
	}
	workers := 0
	if m.tracer != nil {
		workers = 1
	}
	sp := m.tracer.Begin("fleet", "decide_dispatch", telemetry.Int("tenants", len(m.running)))
	par.For(len(m.running), workers, decideOne)
	sp.End()
	// First failure in admission order wins, matching a sequential pass.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// applyDecisions rescales each tenant to its decision, in admission
// order. Injected savepoint/rescale faults are absorbed by the tenant's
// retrier.
func (m *Manager) applyDecisions() error {
	for _, js := range m.running {
		if js.t.Snapshot() == nil {
			m.emit(event.TypeSkip, js.spec.Name, "")
			continue
		}
		if err := js.t.Apply(); err != nil {
			return fmt.Errorf("fleet: job %s rescale: %w", js.spec.Name, err)
		}
		desired := js.t.Desired()
		js.usage = mathx.SumInts(desired)
		args := make([]int64, len(desired))
		for k, n := range desired {
			args[k] = int64(n)
		}
		m.emit(event.TypeDecide, js.spec.Name, "", args...)
	}
	return nil
}

// record closes the round's budget bookkeeping: Σ effective tasks across
// the running tenants once the round's decisions are applied, counted as
// an overrun when it exceeds the global budget.
func (m *Manager) record() int {
	total := 0
	for _, js := range m.running {
		total += js.t.Flink().RunningTasks()
	}
	m.res.TotalTasksByRound = append(m.res.TotalTasksByRound, total)
	if total > m.cfg.TotalTaskBudget {
		m.res.BudgetOverruns++
		m.reg.Inc("fleet_budget_overruns")
	}
	return total
}

// gauges publishes the fleet-level metrics after each round.
func (m *Manager) gauges() {
	reg := m.reg
	reg.SetGauge("fleet_admission_queue_depth", float64(len(m.queue)))
	reg.SetGauge("fleet_running_jobs", float64(len(m.running)))
	allocated := 0
	for _, js := range m.running {
		allocated += js.budget
		reg.SetGauge(js.shareGauge, float64(js.budget))
		reg.SetGauge(js.priceGauge, dualPrice(js.t.Controller().Duals()))
	}
	reg.SetGauge("fleet_budget_allocated", float64(allocated))
	reg.SetGauge("fleet_budget_total", float64(m.cfg.TotalTaskBudget))
	reg.SetGauge("fleet_inbox_pending", float64(len(m.inbox)))
	reg.SetGauge("fleet_inbox_deduped", float64(m.deduped))
	reg.SetGauge("fleet_events_committed", float64(m.log.Len()))
}

// dualPrice condenses a job's dual vector into its scalar shadow price:
// the mean positive multiplier. λ is already normalized to O(1): the osp
// dual update divides each violation by the job's YMax, so prices are
// comparable across jobs of different capacity scales.
func dualPrice(duals []float64) float64 {
	if len(duals) == 0 {
		return 0
	}
	var s float64
	for _, l := range duals {
		s += math.Max(0, l)
	}
	return s / float64(len(duals))
}

// needHeadroom pads the utilization-derived demand estimate so ordinary
// load noise doesn't read as a shrink opportunity.
const needHeadroom = 1.3

// estimateNeed converts a snapshot into the Σ-tasks allocation the job's
// measured load actually requires: per operator, tasks × utilization
// (the DS2-style "true processing requirement") padded with headroom.
// This — not the job's desired configuration — is the arbiter's shrink
// signal: a controller camping on its whole budget for GP exploration
// still *uses* little CPU, and exploration is exactly the spend a
// shared-budget arbiter should claw back from satisfied tenants.
func estimateNeed(snap *monitor.Snapshot, maxTasks int) int {
	need := 0
	for _, om := range snap.Operators {
		n := int(math.Ceil(float64(om.Tasks) * om.Util * needHeadroom))
		if n < 1 {
			n = 1
		}
		if n > maxTasks {
			n = maxTasks
		}
		need += n
	}
	return need
}

// buildStack constructs a newly admitted tenant: its controller,
// warm-started from the kind archive (and its capacity plan's probes),
// then its engine, Flink job, monitor and retrier.
func (m *Manager) buildStack(js *jobState, r int) error {
	spec := js.spec.Workload
	var initial []int // nil: the cold floor, one task per operator
	if js.plan != nil {
		initial = append([]int(nil), js.plan.Tasks...)
	}
	history := m.archive.seed(js.kind, spec)
	nRecords := len(history)
	db := store.New()
	if js.plan != nil {
		// The plan's probe observations are the tenant's own evidence:
		// they seed its GPs after the archive's records, and they go into
		// its DB so the first harvest archives them.
		for _, rec := range js.plan.Records() {
			if err := db.Append(rec); err != nil {
				return err
			}
			history = append(history, rec)
		}
	}
	cc := tenant.ControllerConfig(spec)
	cc.TaskBudget = js.budget
	cc.Counters = m.reg
	cc.DB = db
	cc.History = history
	ctrl, err := core.New(cc)
	if err != nil {
		return err
	}
	t, err := tenant.New(tenant.Config{
		Name:         js.spec.Name,
		Workload:     spec,
		Rates:        js.spec.Rates,
		Horizon:      m.cfg.Slots,
		Seed:         m.cfg.Seed + int64(js.idx+1)*100003,
		InitialTasks: initial,
		Session:      m.session,
		Policy:       ctrl,
		Metrics:      m.reg,
		Tracer:       m.tracer,
	})
	if err != nil {
		return err
	}
	js.t = t
	js.db = db
	js.usage = mathx.SumInts(t.Flink().Parallelism())
	js.res.AdmitSlot = r
	js.res.WarmStartRecords = nRecords
	if js.plan != nil {
		js.res.Planned = true
		js.res.PlanDigest = js.plan.DigestHex()
	}
	return nil
}
