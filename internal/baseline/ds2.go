package baseline

import (
	"errors"
	"math"

	"dragster/internal/monitor"
)

// DS2 is a proportional controller in the spirit of Kalavri et al. (OSDI
// 2018): each operator's parallelism is set to
//
//	ceil( required output rate / observed per-task processing rate )
//
// in a single step, for every operator simultaneously. It assumes capacity
// scales linearly with tasks — the assumption Dragster's GP replaces —
// so it systematically misses the diminishing-returns knee of the real
// capacity curves. Included as the related-work comparator.
type DS2 struct {
	maxTasks int // caps per-operator parallelism
}

const (
	// ds2Headroom multiplies the required rate to absorb noise.
	ds2Headroom = 1.1
	// ds2DrainSeconds sizes the extra rate budgeted to drain standing
	// backlog: clear the queue within a minute.
	ds2DrainSeconds = 60
)

// NewDS2 validates and returns the policy.
func NewDS2(maxTasks int) (*DS2, error) {
	if err := checkBounds(maxTasks, 0); err != nil {
		return nil, err
	}
	return &DS2{maxTasks: maxTasks}, nil
}

// Name implements the Autoscaler surface.
func (d *DS2) Name() string { return "ds2" }

// Decide implements the Autoscaler surface.
func (d *DS2) Decide(snap *monitor.Snapshot) ([]int, error) {
	if snap == nil {
		return nil, errors.New("baseline: nil snapshot")
	}
	tasks := make([]int, len(snap.Operators))
	for i, om := range snap.Operators {
		tasks[i] = om.Tasks
		if om.Tasks <= 0 {
			tasks[i] = minTasks
			continue
		}
		// Observed per-task true processing rate (output units), from the
		// useful-time normalization: rate/util spreads over tasks.
		util := math.Max(om.Util, 0.05)
		perTask := om.OutRate / util / float64(om.Tasks)
		if perTask <= 0 {
			continue // nothing observed; keep current
		}
		// Required output rate: sustain the selectivity-scaled input plus
		// drain the standing backlog.
		sel := 1.0
		if om.ConsumedRate > 0 {
			sel = om.OutRate / om.ConsumedRate
		}
		required := om.InRate*sel + om.Backlog*sel/ds2DrainSeconds
		want := int(math.Ceil(required * ds2Headroom / perTask))
		want = min(max(want, minTasks), d.maxTasks)
		tasks[i] = want
	}
	return tasks, nil
}
