// Package baseline implements the comparison policies of the paper's
// evaluation: Dhalion (the rule-based self-regulating scaler of Twitter
// Heron, §6.1) and a DS2-style proportional controller (related work,
// included as an extra baseline). Both implement the same Autoscaler
// surface as the Dragster controller.
package baseline

import (
	"errors"
	"fmt"

	"dragster/internal/monitor"
)

// Dhalion reproduces the baseline policy as the paper describes it:
// "Dhalion linearly increases the number of tasks for an operator
// suffering from the backpressure and removes the idle one if its CPU
// utilization is lower than a threshold", adjusting one operator per slot
// (§6.2: "at each time slot, Dhalion selects one operator to adjust its
// configuration"). It is purely rule-based — it keeps no history, which
// is why it repeats the same search after every recurring load change.
type Dhalion struct {
	// MaxTasks caps scale-up per operator (the paper's grid tops at 10).
	MaxTasks int
	// MinTasks floors scale-down (default 1).
	MinTasks int
	// TaskBudget bounds Σ tasks when positive. Dhalion respects the budget
	// by refusing scale-ups that would exceed it (it does not rebalance
	// across operators — the behaviour behind Fig. 4(d)).
	TaskBudget int
}

// idleUtil is the CPU threshold below which Dhalion removes a task. It
// parks the scale-down at roughly 1.4× the minimal configuration — the
// over-provisioning gap behind the paper's Table 2 cost comparison.
const idleUtil = 0.7

// NewDhalion validates and returns the policy.
func NewDhalion(maxTasks int, opts ...func(*Dhalion)) (*Dhalion, error) {
	if maxTasks < 1 {
		return nil, errors.New("baseline: MaxTasks must be ≥ 1")
	}
	d := &Dhalion{MaxTasks: maxTasks, MinTasks: 1}
	for _, o := range opts {
		o(d)
	}
	if d.MinTasks < 1 || d.MinTasks > d.MaxTasks {
		return nil, fmt.Errorf("baseline: MinTasks %d outside [1, %d]", d.MinTasks, d.MaxTasks)
	}
	if d.TaskBudget < 0 {
		return nil, errors.New("baseline: negative TaskBudget")
	}
	return d, nil
}

// WithBudget sets the task budget.
func WithBudget(b int) func(*Dhalion) {
	return func(d *Dhalion) { d.TaskBudget = b }
}

// Name implements the Autoscaler surface.
func (d *Dhalion) Name() string { return "dhalion" }

// Decide implements the Autoscaler surface: one symptom → one diagnosis →
// one resolution action per slot.
func (d *Dhalion) Decide(snap *monitor.Snapshot) ([]int, error) {
	if snap == nil {
		return nil, errors.New("baseline: nil snapshot")
	}
	tasks := make([]int, len(snap.Operators))
	total := 0
	for i, om := range snap.Operators {
		tasks[i] = om.Tasks
		total += om.Tasks
	}

	// Symptom 1: backpressure. Scale up the operator with the largest
	// backlog among the backpressured ones.
	worst, worstBacklog := -1, -1.0
	for i, om := range snap.Operators {
		if om.Backpressured && om.Tasks < d.MaxTasks {
			if om.Backlog > worstBacklog {
				worst, worstBacklog = i, om.Backlog
			}
		}
	}
	if worst >= 0 {
		if d.TaskBudget == 0 || total+1 <= d.TaskBudget {
			tasks[worst]++
		}
		return tasks, nil
	}

	// Symptom 2: idleness. Remove one task from every operator below the
	// CPU threshold (scale-down is cheap and safe, so Dhalion applies it
	// cluster-wide in one resolution — this is what gives it the fast
	// down-phase convergence of Table 2).
	for i, om := range snap.Operators {
		if om.Tasks > d.MinTasks && om.Util < idleUtil {
			tasks[i]--
		}
	}
	return tasks, nil
}
