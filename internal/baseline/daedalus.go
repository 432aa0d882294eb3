package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dragster/internal/monitor"
)

// Daedalus is a self-adaptive baseline in the spirit of Daedalus (Pfister
// et al., arXiv 2403.02093): it drives every operator toward a target
// CPU-utilization band each slot using a utilization model — required
// parallelism ≈ tasks × util / target — rather than one rule-selected
// operator per slot (Dhalion) or a single unbounded proportional jump
// (DS2). Steps are bounded per operator per slot (real rescales are not
// free), backpressured operators always escalate by at least one task,
// and a positive budget is respected by granting scale-ups in descending
// backlog order. It adapts fast but, keeping no model of the capacity
// curve, it re-pays the adaptation cost after every load change — the
// self-adaptive comparator the capacity experiment measures plans
// against.
type Daedalus struct {
	// MaxTasks caps per-operator parallelism; MinTasks floors it
	// (default 1).
	MaxTasks int
	MinTasks int
	// MaxStep bounds the per-operator parallelism change in one slot
	// (default 2).
	MaxStep int
	// TaskBudget bounds Σ tasks when positive; scale-ups beyond it are
	// granted in descending backlog order.
	TaskBudget int
}

// targetUtil is the utilization Daedalus steers every operator to:
// headroom below saturation, above idle waste.
const targetUtil = 0.75

// NewDaedalus validates and returns the policy.
func NewDaedalus(maxTasks int, opts ...func(*Daedalus)) (*Daedalus, error) {
	if maxTasks < 1 {
		return nil, errors.New("baseline: MaxTasks must be ≥ 1")
	}
	d := &Daedalus{MaxTasks: maxTasks, MinTasks: 1, MaxStep: 2}
	for _, o := range opts {
		o(d)
	}
	if d.MinTasks < 1 || d.MinTasks > d.MaxTasks {
		return nil, fmt.Errorf("baseline: MinTasks %d outside [1, %d]", d.MinTasks, d.MaxTasks)
	}
	if d.MaxStep < 1 {
		return nil, errors.New("baseline: MaxStep must be ≥ 1")
	}
	if d.TaskBudget < 0 {
		return nil, errors.New("baseline: negative TaskBudget")
	}
	return d, nil
}

// WithDaedalusBudget sets the task budget.
func WithDaedalusBudget(b int) func(*Daedalus) {
	return func(d *Daedalus) { d.TaskBudget = b }
}

// Name implements the Autoscaler surface.
func (d *Daedalus) Name() string { return "daedalus" }

// Decide implements the Autoscaler surface.
func (d *Daedalus) Decide(snap *monitor.Snapshot) ([]int, error) {
	if snap == nil {
		return nil, errors.New("baseline: nil snapshot")
	}
	n := len(snap.Operators)
	tasks := make([]int, n)
	total := 0
	for i, om := range snap.Operators {
		cur := om.Tasks
		if cur < d.MinTasks {
			cur = d.MinTasks
		}
		// Utilization model: the work currently done by cur tasks at om.Util
		// needs cur·util/target tasks at the setpoint.
		want := cur
		if om.Util > 0 {
			want = int(math.Ceil(float64(cur) * om.Util / targetUtil))
		}
		if om.Backpressured && want <= om.Tasks {
			// A saturated operator under-reports its demand (util tops out
			// at 1); always escalate it.
			want = om.Tasks + 1
		}
		// Bounded actuation: real rescales pause the job, so Daedalus moves
		// at most MaxStep tasks per slot.
		if want > om.Tasks+d.MaxStep {
			want = om.Tasks + d.MaxStep
		}
		if want < om.Tasks-d.MaxStep {
			want = om.Tasks - d.MaxStep
		}
		if want < d.MinTasks {
			want = d.MinTasks
		}
		if want > d.MaxTasks {
			want = d.MaxTasks
		}
		tasks[i] = want
		total += want
	}
	if d.TaskBudget > 0 && total > d.TaskBudget {
		d.trimToBudget(snap, tasks, total)
	}
	return tasks, nil
}

// trimToBudget revokes scale-ups — never forced scale-downs below the
// current allocation — until Σ tasks fits the budget, taking from the
// operators with the smallest backlog first (deterministic: ties break
// on the higher operator index, so earlier operators keep their grants).
func (d *Daedalus) trimToBudget(snap *monitor.Snapshot, tasks []int, total int) {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := snap.Operators[order[a]], snap.Operators[order[b]]
		if oa.Backlog != ob.Backlog {
			return oa.Backlog < ob.Backlog
		}
		return order[a] > order[b]
	})
	for total > d.TaskBudget {
		trimmed := false
		for _, i := range order {
			if tasks[i] > snap.Operators[i].Tasks && tasks[i] > d.MinTasks {
				tasks[i]--
				total--
				trimmed = true
				if total <= d.TaskBudget {
					return
				}
			}
		}
		if !trimmed {
			return // nothing left to revoke; budget was infeasible before us
		}
	}
}
