package baseline

import (
	"errors"
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
	// maxTasks caps per-operator parallelism.
	maxTasks int
	// budget bounds Σ tasks when positive; scale-ups beyond it are
	// granted in descending backlog order.
	budget int
}

const (
	// targetUtil is the utilization Daedalus steers every operator to:
	// headroom below saturation, above idle waste.
	targetUtil = 0.75
	// maxStep bounds the per-operator parallelism change in one slot.
	maxStep = 2
)

// NewDaedalus validates and returns the policy; a budget of 0 leaves
// Σ tasks unbounded.
func NewDaedalus(maxTasks, budget int) (*Daedalus, error) {
	if err := checkBounds(maxTasks, budget); err != nil {
		return nil, err
	}
	return &Daedalus{maxTasks: maxTasks, budget: budget}, nil
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
		cur := max(om.Tasks, minTasks)
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
		// at most maxStep tasks per slot.
		want = min(max(want, om.Tasks-maxStep), om.Tasks+maxStep)
		want = min(max(want, minTasks), d.maxTasks)
		tasks[i] = want
		total += want
	}
	if d.budget > 0 && total > d.budget {
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
	for total > d.budget {
		trimmed := false
		for _, i := range order {
			if tasks[i] > snap.Operators[i].Tasks && tasks[i] > minTasks {
				tasks[i]--
				total--
				trimmed = true
				if total <= d.budget {
					return
				}
			}
		}
		if !trimmed {
			return // nothing left to revoke; budget was infeasible before us
		}
	}
}
