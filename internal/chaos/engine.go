package chaos

import (
	"errors"
	"fmt"

	"dragster/internal/cluster"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/stats"
	"dragster/internal/telemetry"
)

// ErrInjected marks every error the engine injects. Control layers use
// errors.Is(err, ErrInjected) to classify a failure as transient chaos
// (retry) versus a genuine bug (propagate).
var ErrInjected = errors.New("chaos: injected fault")

// TraceEntry is one line of the deterministic fault trace.
type TraceEntry struct {
	Slot   int
	Clock  int64 // cluster seconds when the fault fired
	Kind   Kind
	Detail string
}

// String implements fmt.Stringer.
func (t TraceEntry) String() string {
	return fmt.Sprintf("slot=%d clock=%d %s %s", t.Slot, t.Clock, t.Kind, t.Detail)
}

// armedRescale is a pending savepoint-failure / rescale-timeout burst.
type armedRescale struct {
	kind      Kind
	remaining int
}

// crashRecord remembers a crashed node so a later heal can restore its
// capacity.
type crashRecord struct {
	name string
	spec cluster.ResourceSpec
}

// defaultHealSpec is used when a heal has no outstanding crash to mirror
// (matches the experiment harness's standard worker node).
var defaultHealSpec = cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}

// Engine replays a Spec against a simulated deployment. It implements
// cluster.Injector, flink.ChaosHooks, and monitor.Interceptor; Install
// wires it into all three. The harness calls BeginSlot(slot) at every
// decision-slot boundary before the slot runs.
//
// Determinism: all randomness flows through one seeded stats.RNG that is
// consumed only when a fault actually fires, so a fixed (Spec, seed) pair
// against the same seeded simulation yields an identical fault trace and
// identical counters on every replay.
type Engine struct {
	bySlot   map[int][]Event
	blackout map[int]bool // slots inside a MetricsBlackout window
	stale    map[int]bool // slots inside a MetricsStale window
	rng      *stats.RNG
	counters *telemetry.Registry

	k8s *cluster.Cluster

	currentSlot    int
	slotStartClock int64
	timed          []Event // direct events of the current slot with Second > 0

	armed     []armedRescale
	slowQueue []int // extra restore seconds, FIFO
	holdUntil int64 // scheduler delay: hold while clock < holdUntil

	crashes  []crashRecord // un-healed crashes, FIFO
	healSeq  int
	lastGood *monitor.Snapshot // last pre-window report, for stale replays

	trace  []TraceEntry
	tracer *telemetry.Tracer
}

// SetTracer installs (or, with nil, removes) the observability tracer.
// Every fault-trace entry is mirrored as a "chaos" span event named after
// the fault kind, so run traces interleave fault delivery with the
// optimizer and substrate spans it perturbs.
func (e *Engine) SetTracer(tr *telemetry.Tracer) { e.tracer = tr }

// SeedOffset separates a run's chaos stream from its workload noise: a
// run seeded s seeds its chaos engine s+SeedOffset.
const SeedOffset = 104729

// NewEngine validates the spec and returns an engine seeded with the
// given seed. Fault counts go to counters, or, when it is nil, to a
// private registry (exposed via Metrics).
func NewEngine(spec *Spec, seed int64, counters *telemetry.Registry) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if counters == nil {
		counters = telemetry.NewRegistry()
	}
	e := &Engine{
		bySlot:   eventsBySlot(spec),
		blackout: make(map[int]bool),
		stale:    make(map[int]bool),
		rng:      stats.NewRNG(seed),
		counters: counters,
	}
	for _, ev := range spec.Events {
		switch ev.Kind {
		case MetricsBlackout:
			for s := ev.Slot; s < ev.Slot+ev.slotsOrDefault(); s++ {
				e.blackout[s] = true
			}
		case MetricsStale:
			for s := ev.Slot; s < ev.Slot+ev.slotsOrDefault(); s++ {
				e.stale[s] = true
			}
		}
	}
	return e, nil
}

// Install wires the engine into the substrate. k8s is required; job and
// mon may be nil when that layer is absent (e.g. the fleet, which injects
// cluster-level faults only).
func (e *Engine) Install(k8s *cluster.Cluster, job *flink.Job, mon *monitor.Monitor) error {
	if k8s == nil {
		return errors.New("chaos: Install needs a cluster")
	}
	e.k8s = k8s
	k8s.SetInjector(e)
	if job != nil {
		job.SetChaosHooks(e)
	}
	if mon != nil {
		mon.SetInterceptor(e)
	}
	return nil
}

// Metrics returns the registry the engine counts faults in.
func (e *Engine) Metrics() *telemetry.Registry { return e.counters }

// Trace returns a copy of the fault trace so far.
func (e *Engine) Trace() []TraceEntry {
	return append([]TraceEntry(nil), e.trace...)
}

func (e *Engine) clockNow() int64 {
	if e.k8s == nil {
		return 0
	}
	return e.k8s.Clock()
}

func (e *Engine) record(kind Kind, detail string) {
	e.trace = append(e.trace, TraceEntry{
		Slot:   e.currentSlot,
		Clock:  e.clockNow(),
		Kind:   kind,
		Detail: detail,
	})
	e.tracer.Event("chaos", kind.String(),
		telemetry.Int("slot", e.currentSlot),
		telemetry.Str("detail", detail))
	e.tracer.Metrics().Inc("chaos_trace_entries")
}

func (e *Engine) skip(kind Kind, why string) {
	e.counters.Inc("chaos_skipped")
	e.record(kind, "skipped: "+why)
}

// BeginSlot must be called at each decision-slot boundary, before the
// slot's workload runs. It fires the slot's boundary faults, arms its
// call-triggered faults, and queues its mid-slot (Second > 0) faults for
// AfterTick.
func (e *Engine) BeginSlot(slot int) {
	e.currentSlot = slot
	e.slotStartClock = e.clockNow()
	e.timed = e.timed[:0]
	mutated := false
	for _, ev := range e.bySlot[slot] {
		switch ev.Kind {
		case NodeCrash, NodeHeal, PodOOM:
			if ev.Second > 0 {
				e.timed = append(e.timed, ev)
				continue
			}
			e.fireDirect(ev)
			mutated = true
		case SavepointFail, RescaleTimeout:
			n := ev.countOrDefault()
			e.armed = append(e.armed, armedRescale{kind: ev.Kind, remaining: n})
			e.record(ev.Kind, fmt.Sprintf("armed count=%d", n))
		case SlowRestore:
			e.slowQueue = append(e.slowQueue, ev.Seconds)
			e.record(SlowRestore, fmt.Sprintf("armed extra=%ds", ev.Seconds))
		case SchedulerDelay:
			e.holdUntil = e.slotStartClock + int64(ev.Seconds)
			e.counters.Inc("chaos_scheduler_delays")
			e.record(SchedulerDelay, fmt.Sprintf("hold %ds", ev.Seconds))
		case MetricsBlackout, MetricsStale:
			e.record(ev.Kind, fmt.Sprintf("window opens, %d slots", ev.slotsOrDefault()))
		}
	}
	if mutated && e.k8s != nil {
		// Zero-length tick: runs a scheduling pass so evicted/replacement
		// pods are placed (capacity permitting) before the slot's workload.
		e.k8s.Tick(0)
	}
}

// fireDirect executes a boundary or mid-slot cluster mutation.
func (e *Engine) fireDirect(ev Event) {
	if e.k8s == nil {
		e.skip(ev.Kind, "no cluster installed")
		return
	}
	switch ev.Kind {
	case NodeCrash:
		nodes := e.k8s.Nodes()
		if len(nodes) <= 1 {
			e.skip(NodeCrash, "cluster down to its last node")
			return
		}
		victim := nodes[len(nodes)-1]
		if ev.Victim == VictimSeeded {
			victim = nodes[e.rng.Intn(len(nodes))]
		}
		spec, _ := e.k8s.NodeAllocatable(victim)
		if err := e.k8s.RemoveNode(victim); err != nil {
			e.skip(NodeCrash, err.Error())
			return
		}
		e.crashes = append(e.crashes, crashRecord{name: victim, spec: spec})
		e.counters.Inc("chaos_node_crashes")
		e.record(NodeCrash, "node "+victim)
	case NodeHeal:
		spec := defaultHealSpec
		detail := "fresh node"
		if len(e.crashes) > 0 {
			cr := e.crashes[0]
			e.crashes = e.crashes[1:]
			spec = cr.spec
			detail = "replacing " + cr.name
		}
		e.healSeq++
		name := fmt.Sprintf("chaos-node-%d", e.healSeq)
		if err := e.k8s.AddNode(name, spec); err != nil {
			e.skip(NodeHeal, err.Error())
			return
		}
		e.counters.Inc("chaos_node_heals")
		e.record(NodeHeal, "node "+name+", "+detail)
	case PodOOM:
		var running []string
		for _, p := range e.k8s.Pods() {
			if p.Phase == cluster.PodRunning {
				running = append(running, p.Name)
			}
		}
		if len(running) == 0 {
			e.skip(PodOOM, "no running pods")
			return
		}
		victim := running[e.rng.Intn(len(running))]
		if err := e.k8s.KillPod(victim); err != nil {
			e.skip(PodOOM, err.Error())
			return
		}
		e.counters.Inc("chaos_pod_ooms")
		e.record(PodOOM, "pod "+victim)
	}
}

// HoldScheduling implements cluster.Injector.
func (e *Engine) HoldScheduling(clock int64) bool {
	return clock < e.holdUntil
}

// AfterTick implements cluster.Injector: it fires the current slot's
// mid-slot faults once the cluster clock reaches their second offset.
// Replacement pods created here are placed by the next tick's scheduling
// pass (a one-second restart lag), never by re-entering Tick.
func (e *Engine) AfterTick(_ *cluster.Cluster, clock int64) {
	if len(e.timed) == 0 {
		return
	}
	rest := e.timed[:0]
	for _, ev := range e.timed {
		if e.slotStartClock+int64(ev.Second) <= clock {
			e.fireDirect(ev)
			continue
		}
		rest = append(rest, ev)
	}
	e.timed = rest
}

// InterceptRescale implements flink.ChaosHooks: armed savepoint failures
// and rescale timeouts consume the next rescale attempts.
func (e *Engine) InterceptRescale(job string, slot int) error {
	if len(e.armed) == 0 {
		return nil
	}
	a := &e.armed[0]
	kind := a.kind
	a.remaining--
	if a.remaining <= 0 {
		e.armed = e.armed[1:]
	}
	var what string
	switch kind {
	case RescaleTimeout:
		e.counters.Inc("chaos_rescale_timeouts")
		what = "rescale timed out"
	default:
		e.counters.Inc("chaos_savepoint_failures")
		what = "savepoint failed"
	}
	e.record(kind, fmt.Sprintf("job %s, flink slot %d", job, slot))
	return fmt.Errorf("chaos: %s for job %s: %w", what, job, ErrInjected)
}

// ExtraRestoreSeconds implements flink.ChaosHooks: a successful rescale
// consumes any armed slow-restore penalty.
func (e *Engine) ExtraRestoreSeconds(job string, slot int) int {
	if len(e.slowQueue) == 0 {
		return 0
	}
	extra := e.slowQueue[0]
	e.slowQueue = e.slowQueue[1:]
	e.counters.Inc("chaos_slow_restores")
	e.record(SlowRestore, fmt.Sprintf("job %s, flink slot %d, +%ds", job, slot, extra))
	return extra
}

// InterceptReport implements monitor.Interceptor. During a blackout the
// metrics server is unreachable: the monitor gets an error wrapping both
// monitor.ErrNoSample and ErrInjected. During a stale window it re-serves
// the last pre-window report; the monitor's freshness guard then rejects
// it, so the control loop sees "no sample" either way and must skip the
// optimizer round rather than learn from a repeated measurement.
func (e *Engine) InterceptReport(rep *monitor.Snapshot) (*monitor.Snapshot, error) {
	switch {
	case e.blackout[e.currentSlot]:
		e.counters.Inc("chaos_metrics_blackouts")
		e.record(MetricsBlackout, "report dropped")
		return nil, fmt.Errorf("chaos: metrics server unreachable at slot %d: %w",
			e.currentSlot, errors.Join(monitor.ErrNoSample, ErrInjected))
	case e.stale[e.currentSlot]:
		e.counters.Inc("chaos_metrics_stale")
		if e.lastGood == nil {
			e.record(MetricsStale, "no prior report, dropped")
			return nil, fmt.Errorf("chaos: metrics server has no fresh data at slot %d: %w",
				e.currentSlot, errors.Join(monitor.ErrNoSample, ErrInjected))
		}
		e.record(MetricsStale, fmt.Sprintf("re-served report of slot %d", e.lastGood.Slot))
		return e.lastGood, nil
	default:
		e.lastGood = rep
		return rep, nil
	}
}

// Compile-time checks that the engine satisfies every hook surface.
var (
	_ cluster.Injector    = (*Engine)(nil)
	_ flink.ChaosHooks    = (*Engine)(nil)
	_ monitor.Interceptor = (*Engine)(nil)
)
