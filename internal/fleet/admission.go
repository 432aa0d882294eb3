package fleet

import (
	"fmt"

	"dragster/internal/cluster"
	"dragster/internal/fleet/event"
	"dragster/internal/flink"
	"dragster/internal/planner"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

// Admission control: a submitted job waits in a FIFO queue until the
// fleet can grant it its admission allocation: one task per operator, or
// its capacity plan's total under PlanOnAdmit. Admissibility needs two
// things to hold simultaneously:
//
//  1. budget feasibility: the floors of every running job plus the
//     newcomer's grant fit inside the global Σ-tasks budget (running
//     jobs above their floor are shrunk by the rebalance that follows
//     every admission, so floors are the binding commitment);
//  2. capacity feasibility: the cluster has enough unreserved CPU and
//     memory to place the grant's TaskManager pods.
//
// The queue is head-of-line blocking: if the front job does not fit,
// nothing behind it is considered this round — later (smaller) jobs must
// not starve an earlier tenant indefinitely.

// grantFor is the Σ-tasks allocation a job receives at admission: the
// capacity plan's total when one was built, the cold floor otherwise.
func (m *Manager) grantFor(js *jobState) int {
	g := js.spec.floor()
	if js.plan != nil {
		if t := js.plan.TotalTasks; t > g {
			g = t
		}
		if mu := js.spec.maxUseful(); g > mu {
			g = mu
		}
	}
	return g
}

// ensurePlan builds and journals the capacity plan for a PlanOnAdmit
// tenant the first time it reaches the head of the admission queue. The
// plan is memoized on the jobState, so blocked rounds neither re-probe
// nor re-journal, and it is built from a seed derived deterministically
// from the fleet seed and the tenant's submission index — replay and
// failover rebuild the identical plan (the checkpoint pins its digest).
func (m *Manager) ensurePlan(js *jobState) error {
	if !js.spec.PlanOnAdmit || js.plan != nil {
		return nil
	}
	p, err := planner.Build(planner.Config{
		Spec:        js.spec.Workload,
		TargetRates: m.planTargetRates(js),
		Seed:        m.cfg.Seed + int64(js.idx+1)*999983,
	})
	if err != nil {
		return fmt.Errorf("fleet: planning job %s: %w", js.spec.Name, err)
	}
	js.plan = p
	args := make([]int64, len(p.Tasks))
	for i, n := range p.Tasks {
		args[i] = int64(n)
	}
	m.emit(event.TypePlan, js.spec.Name,
		fmt.Sprintf("digest=%s probes=%d feasible=%v", p.DigestHex(), len(p.Probes), p.Feasible), args...)
	m.tracer.Event("fleet", "plan",
		telemetry.Str("job", js.spec.Name), telemetry.Int("total_tasks", p.TotalTasks),
		telemetry.Int("probes", len(p.Probes)))
	m.reg.Inc("fleet_jobs_planned")
	return nil
}

// planTargetRates is the sustained load a plan must cover: the spec's
// explicit target, or the profile's per-source peak over the horizon.
func (m *Manager) planTargetRates(js *jobState) []float64 {
	if js.spec.TargetRates != nil {
		return append([]float64(nil), js.spec.TargetRates...)
	}
	return workload.PeakRates(js.spec.Rates, js.spec.Workload.Graph.NumSources(), m.cfg.Slots)
}

// admitQueued admits as many queued jobs as fit, in FIFO order, and
// reports whether fleet membership changed.
func (m *Manager) admitQueued(r int) (changed bool, err error) {
	for len(m.queue) > 0 {
		js := m.queue[0]
		if err := m.ensurePlan(js); err != nil {
			return changed, err
		}
		g := m.grantFor(js)
		if why, ok := m.admissible(js, g); !ok {
			m.tracer.Event("fleet", "admission_wait",
				telemetry.Str("job", js.spec.Name), telemetry.Str("reason", why))
			break // head-of-line blocking
		}
		m.queue = m.queue[1:]
		js.budget = g
		if err := m.buildStack(js, r); err != nil {
			return changed, fmt.Errorf("fleet: admitting job %s: %w", js.spec.Name, err)
		}
		js.res.Status = StatusRunning
		m.running = append(m.running, js)
		m.emit(event.TypeAdmit, js.spec.Name, "", int64(g))
		m.tracer.Event("fleet", "admit", telemetry.Str("job", js.spec.Name), telemetry.Int("grant", g))
		m.reg.Inc("fleet_jobs_admitted")
		changed = true
	}
	return changed, nil
}

// admissible checks budget and capacity feasibility for a grant of g
// tasks. Returns a human-readable reason when the answer is no.
func (m *Manager) admissible(js *jobState, g int) (string, bool) {
	committed := 0
	for _, r := range m.running {
		committed += r.spec.floor()
	}
	if committed+g > m.cfg.TotalTaskBudget {
		return fmt.Sprintf("budget: floors %d + grant %d > total %d", committed, g, m.cfg.TotalTaskBudget), false
	}
	free := m.k8s.Free()
	tm := flink.TaskManagerSpec()
	need := cluster.ResourceSpec{CPUMilli: g * tm.CPUMilli, MemoryMB: g * tm.MemoryMB}
	if need.CPUMilli > free.CPUMilli || need.MemoryMB > free.MemoryMB {
		return fmt.Sprintf("capacity: need %dm/%dMB, free %dm/%dMB",
			need.CPUMilli, need.MemoryMB, free.CPUMilli, free.MemoryMB), false
	}
	return "", true
}
