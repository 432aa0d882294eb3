// Package chaos implements a deterministic, seed-driven fault-injection
// engine for the Dragster simulation stack. A Spec schedules faults on
// the simulation clock (decision slots, with optional second offsets
// inside a slot); an Engine replays the spec through the injection hooks
// of internal/cluster, internal/flink, and internal/monitor, records a
// fault trace, and accounts every fault in a telemetry.Registry.
//
// Determinism contract: with a fixed Spec and seed, two replays against
// the same seeded simulation produce the same fault trace and the same
// counters. With no engine installed, every hook site in the substrate
// packages is a no-op, so fault-free runs are byte-identical to runs of
// the pre-chaos code.
package chaos

import (
	"errors"
	"fmt"
)

// Kind enumerates the fault taxonomy.
type Kind int

// Fault kinds. Direct faults (NodeCrash, NodeHeal, PodOOM) mutate the
// cluster when their scheduled time arrives; armed faults (SavepointFail,
// RescaleTimeout, SlowRestore) trigger on the next matching substrate
// call; windowed faults (MetricsBlackout, MetricsStale, SchedulerDelay)
// hold for a duration.
const (
	NodeCrash Kind = iota
	NodeHeal
	PodOOM
	SavepointFail
	RescaleTimeout
	SlowRestore
	MetricsBlackout
	MetricsStale
	SchedulerDelay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodeHeal:
		return "node-heal"
	case PodOOM:
		return "pod-oom"
	case SavepointFail:
		return "savepoint-fail"
	case RescaleTimeout:
		return "rescale-timeout"
	case SlowRestore:
		return "slow-restore"
	case MetricsBlackout:
		return "metrics-blackout"
	case MetricsStale:
		return "metrics-stale"
	case SchedulerDelay:
		return "scheduler-delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Victim selects how a NodeCrash / PodOOM target is chosen.
type Victim int

const (
	// VictimSeeded picks the target uniformly with the engine's seeded RNG.
	VictimSeeded Victim = iota
	// VictimLast picks the most recently registered node, which in
	// practice carries only worker pods.
	VictimLast
)

// Event is one scheduled fault.
type Event struct {
	// Slot is the decision slot (0-based) at which the fault fires or its
	// window opens.
	Slot int
	// Second offsets direct faults into the slot: 0 fires at the slot
	// boundary (before the slot's first tick), s > 0 fires once the
	// cluster clock has advanced s seconds into the slot. Ignored for
	// armed and windowed faults.
	Second int
	Kind   Kind
	// Slots is the window length for MetricsBlackout / MetricsStale
	// (default 1).
	Slots int
	// Count is the number of consecutive rescale attempts to fail for
	// SavepointFail / RescaleTimeout (default 1).
	Count int
	// Seconds is the extra pause for SlowRestore, or the hold window for
	// SchedulerDelay.
	Seconds int
	// Victim selects the NodeCrash / PodOOM target policy.
	Victim Victim
}

// Spec is a named, ordered fault schedule — the scenario DSL's product.
// Build one with NewSpec and the fluent methods, or look up a named
// scenario with ByName.
type Spec struct {
	Name   string
	Events []Event
}

// NewSpec returns an empty scenario.
func NewSpec(name string) *Spec { return &Spec{Name: name} }

func (s *Spec) add(e Event) *Spec {
	s.Events = append(s.Events, e)
	return s
}

// CrashNode schedules a seeded-victim node crash at the given slot.
func (s *Spec) CrashNode(slot int) *Spec {
	return s.add(Event{Slot: slot, Kind: NodeCrash, Victim: VictimSeeded})
}

// CrashLastNode schedules a crash of the most recently registered node.
func (s *Spec) CrashLastNode(slot int) *Spec {
	return s.add(Event{Slot: slot, Kind: NodeCrash, Victim: VictimLast})
}

// HealNode schedules a replacement node at the given slot. The
// replacement reuses the allocatable resources of the oldest un-healed
// crash (or a 4-core default when none is outstanding).
func (s *Spec) HealNode(slot int) *Spec {
	return s.add(Event{Slot: slot, Kind: NodeHeal})
}

// FlapNode schedules `cycles` crash/heal pairs starting at startSlot,
// with periodSlots slots between a crash and its heal (and between a heal
// and the next crash) — the node-flapping pattern.
func (s *Spec) FlapNode(startSlot, periodSlots, cycles int) *Spec {
	for c := 0; c < cycles; c++ {
		base := startSlot + 2*periodSlots*c
		s.CrashNode(base)
		s.HealNode(base + periodSlots)
	}
	return s
}

// OOMKillPod schedules a seeded-victim pod OOM-kill at the given slot.
func (s *Spec) OOMKillPod(slot int) *Spec {
	return s.add(Event{Slot: slot, Kind: PodOOM, Victim: VictimSeeded})
}

// FailSavepoints arms `count` consecutive savepoint failures from the
// given slot: the next `count` rescale attempts abort with an injected
// error and the job keeps its previous configuration.
func (s *Spec) FailSavepoints(slot, count int) *Spec {
	return s.add(Event{Slot: slot, Kind: SavepointFail, Count: count})
}

// TimeoutRescales arms `count` consecutive rescale timeouts from the
// given slot.
func (s *Spec) TimeoutRescales(slot, count int) *Spec {
	return s.add(Event{Slot: slot, Kind: RescaleTimeout, Count: count})
}

// SlowRestore arms one slow savepoint restore: the next successful
// rescale pauses for extraSeconds longer than the configured cost.
func (s *Spec) SlowRestore(slot, extraSeconds int) *Spec {
	return s.add(Event{Slot: slot, Kind: SlowRestore, Seconds: extraSeconds})
}

// BlackoutMetrics makes the metrics server unreachable for `slots` slots
// starting at the given slot: Collect returns an error wrapping
// monitor.ErrNoSample instead of data.
func (s *Spec) BlackoutMetrics(slot, slots int) *Spec {
	return s.add(Event{Slot: slot, Kind: MetricsBlackout, Slots: slots})
}

// StaleMetrics makes the metrics server re-serve the last pre-window
// report for `slots` slots starting at the given slot.
func (s *Spec) StaleMetrics(slot, slots int) *Spec {
	return s.add(Event{Slot: slot, Kind: MetricsStale, Slots: slots})
}

// DelayScheduler holds pod scheduling for `seconds` of cluster time
// starting at the given slot's boundary: pending pods stay pending.
func (s *Spec) DelayScheduler(slot, seconds int) *Spec {
	return s.add(Event{Slot: slot, Kind: SchedulerDelay, Seconds: seconds})
}

// AtSecond offsets the most recently added event `sec` seconds into its
// slot (direct faults only). It panics when no event has been added.
func (s *Spec) AtSecond(sec int) *Spec {
	if len(s.Events) == 0 {
		panic("chaos: AtSecond before any event")
	}
	s.Events[len(s.Events)-1].Second = sec
	return s
}

// Validate checks the schedule for impossible entries.
func (s *Spec) Validate() error {
	if s == nil {
		return errors.New("chaos: nil spec")
	}
	if s.Name == "" {
		return errors.New("chaos: spec needs a name")
	}
	for i, e := range s.Events {
		if e.Slot < 0 || e.Second < 0 {
			return fmt.Errorf("chaos: event %d (%s) has negative schedule (slot %d, second %d)", i, e.Kind, e.Slot, e.Second)
		}
		switch e.Kind {
		case MetricsBlackout, MetricsStale:
			if e.Slots < 0 {
				return fmt.Errorf("chaos: event %d (%s) has negative window", i, e.Kind)
			}
		case SavepointFail, RescaleTimeout:
			if e.Count < 0 {
				return fmt.Errorf("chaos: event %d (%s) has negative count", i, e.Kind)
			}
		case SlowRestore, SchedulerDelay:
			if e.Seconds < 0 {
				return fmt.Errorf("chaos: event %d (%s) has negative seconds", i, e.Kind)
			}
		case NodeCrash, NodeHeal, PodOOM:
			// Schedule fields already checked.
		default:
			return fmt.Errorf("chaos: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// MaxSlot returns the highest slot any event touches (window ends
// included), or -1 for an empty spec — a sizing aid for test harnesses.
func (s *Spec) MaxSlot() int {
	maxSlot := -1
	for _, e := range s.Events {
		end := e.Slot
		if e.Kind == MetricsBlackout || e.Kind == MetricsStale {
			end = e.Slot + e.slotsOrDefault() - 1
		}
		if end > maxSlot {
			maxSlot = end
		}
	}
	return maxSlot
}

func (e Event) slotsOrDefault() int {
	if e.Slots <= 0 {
		return 1
	}
	return e.Slots
}

func (e Event) countOrDefault() int {
	if e.Count <= 0 {
		return 1
	}
	return e.Count
}

// eventsBySlot groups a validated spec's events by slot, preserving
// declaration order within a slot.
func eventsBySlot(s *Spec) map[int][]Event {
	out := make(map[int][]Event)
	for _, e := range s.Events {
		out[e.Slot] = append(out[e.Slot], e)
	}
	return out
}
