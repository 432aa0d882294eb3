package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"dragster/internal/fleet/event"
	"dragster/internal/mathx"
	"dragster/internal/telemetry"
)

// Arbitration selects the budget re-partitioning rule.
type Arbitration int

const (
	// DualPrice partitions the surplus budget by each job's OSP shadow
	// price: a job whose long-term buffer constraint is binding carries a
	// positive dual λ, meaning one more unit of capacity would reduce its
	// backlog — so it outbids satisfied (λ≈0) jobs for the surplus.
	// Satisfied jobs are simultaneously ratcheted down toward their actual
	// usage, which clamps GP-UCB exploration excursions they would
	// otherwise take for free.
	DualPrice Arbitration = iota
	// EqualSplit is the static baseline: every running job gets an equal
	// share of the budget regardless of need.
	EqualSplit
)

// String implements fmt.Stringer.
func (a Arbitration) String() string {
	switch a {
	case DualPrice:
		return "dual-price"
	case EqualSplit:
		return "equal-split"
	default:
		return fmt.Sprintf("Arbitration(%d)", int(a))
	}
}

// minSurplusPrice is the dual price below which a job is considered
// satisfied and gets no surplus budget. Unclaimed surplus stays
// unallocated — idle slack costs nothing, whereas handing it to a
// satisfied tenant funds GP-UCB exploration excursions the fleet pays
// for in real dollars. This is where the dual-price arbiter's cost
// advantage over equal-split comes from.
const minSurplusPrice = 0.01

// hysteresisTasks is the smallest budget change a rebalance applies;
// smaller moves keep the previous share, preventing rescale thrash from
// price jitter.
const hysteresisTasks = 2

// rebalance re-partitions the global Σ-tasks budget across the running
// jobs and applies the new shares. It is a pure function of observable
// state (usage, duals, priorities) evaluated in admission order, so a
// fixed seed reproduces every decision. Shrinks take effect immediately
// (the job is trim-rescaled below its new budget before the round's
// slots run); grows only widen the feasible set of the next decision.
// Because Σ shares ≤ TotalTaskBudget by construction and controllers
// project their decisions onto their share, the fleet-wide invariant
// Σ_jobs Σ_ops tasks ≤ B holds at every round of a chaos-free run.
func (m *Manager) rebalance() error {
	if len(m.running) == 0 {
		return nil
	}
	var targets []int
	switch m.cfg.Arbitration {
	case EqualSplit:
		targets = m.equalSplit()
	default:
		targets = m.dualPriceSplit()
	}

	// Hysteresis: keep the previous share when the move is smaller than
	// hysteresisTasks — unless keeping every small move would overflow the
	// budget (possible right after an admission squeezed the floors).
	kept := make([]int, len(m.running))
	keptSum := 0
	for i, js := range m.running {
		kept[i] = targets[i]
		if diff := targets[i] - js.budget; js.budget >= js.spec.floor() &&
			diff > -hysteresisTasks && diff < hysteresisTasks {
			kept[i] = js.budget
		}
		keptSum += kept[i]
	}
	if keptSum <= m.cfg.TotalTaskBudget {
		targets = kept
	}

	for i, js := range m.running {
		if targets[i] == js.budget {
			continue
		}
		price := dualPrice(js.t.Controller().Duals())
		m.emit(event.TypeGrant, js.spec.Name,
			"price="+strconv.FormatFloat(price, 'g', 6, 64),
			int64(js.budget), int64(targets[i]))
		m.tracer.Event("fleet", "rebalance",
			telemetry.Str("job", js.spec.Name),
			telemetry.Int("from", js.budget), telemetry.Int("to", targets[i]),
			telemetry.Float("price", price))
		m.reg.Inc("fleet_arbiter_decisions")
		if err := js.t.Controller().SetTaskBudget(targets[i]); err != nil {
			return fmt.Errorf("fleet: job %s: %w", js.spec.Name, err)
		}
		js.budget = targets[i]
		if err := m.shrinkToBudget(js); err != nil {
			return err
		}
	}
	return nil
}

// dualPriceSplit computes the DualPrice shares: every job keeps a base
// of clamp(need, floor, min(prevBudget, maxUseful)) — a ratchet toward
// the utilization-derived demand estimate of what it actually uses (see
// estimateNeed) — and the surplus is split largest-remainder by
// priority × price across the jobs whose dual price exceeds
// minSurplusPrice, with per-rebalance growth capped at MaxGrowTasks and
// per-job budgets capped at maxUseful. When no job is priced the
// surplus stays unallocated.
func (m *Manager) dualPriceSplit() []int {
	n := len(m.running)
	base := make([]int, n)
	total := 0
	for i, js := range m.running {
		hi := js.budget
		if u := js.spec.maxUseful(); hi > u {
			hi = u
		}
		if hi < js.spec.floor() {
			hi = js.spec.floor()
		}
		b := js.need
		if b == 0 {
			b = js.usage // no snapshot yet (just admitted)
		}
		if b < js.spec.floor() {
			b = js.spec.floor()
		}
		if b > hi {
			b = hi
		}
		base[i] = b
		total += b
	}
	// Right after an admission the floors may momentarily not all fit on
	// top of incumbent usage; shave the jobs furthest above their floor
	// (ties: latest admitted first) until the bases fit.
	for total > m.cfg.TotalTaskBudget {
		best := -1
		for i := n - 1; i >= 0; i-- {
			if over := base[i] - m.running[i].spec.floor(); over > 0 &&
				(best < 0 || over > base[best]-m.running[best].spec.floor()) {
				best = i
			}
		}
		if best < 0 {
			break // all at floor; admission guarantees this fits
		}
		base[best]--
		total--
	}

	surplus := m.cfg.TotalTaskBudget - total
	if surplus <= 0 {
		return base
	}
	weights := make([]float64, n)
	var wsum float64
	for i, js := range m.running {
		price := dualPrice(js.t.Controller().Duals())
		if price <= minSurplusPrice {
			continue // satisfied: no claim on the surplus
		}
		w := js.spec.Priority * price
		weights[i] = w
		wsum += w
	}
	if wsum == 0 {
		return base // nobody is starved; leave the surplus unallocated
	}
	shares := largestRemainder(surplus, weights, wsum)
	out := make([]int, n)
	for i, js := range m.running {
		grow := shares[i]
		if grow > m.cfg.MaxGrowTasks {
			grow = m.cfg.MaxGrowTasks
		}
		b := base[i] + grow
		if u := js.spec.maxUseful(); b > u {
			b = u
		}
		out[i] = b
	}
	return out
}

// equalSplit is the static baseline: floors, then an equal
// largest-remainder split of the remainder, capped at maxUseful.
func (m *Manager) equalSplit() []int {
	n := len(m.running)
	out := make([]int, n)
	total := 0
	for i, js := range m.running {
		out[i] = js.spec.floor()
		total += out[i]
	}
	surplus := m.cfg.TotalTaskBudget - total
	if surplus <= 0 {
		return out
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	shares := largestRemainder(surplus, weights, float64(n))
	for i, js := range m.running {
		b := out[i] + shares[i]
		if u := js.spec.maxUseful(); b > u {
			b = u
		}
		out[i] = b
	}
	return out
}

// largestRemainder apportions total units proportionally to weights,
// deterministically: floors first, then one extra unit each to the
// largest fractional remainders (ties broken by lowest index).
func largestRemainder(total int, weights []float64, wsum float64) []int {
	n := len(weights)
	out := make([]int, n)
	if total <= 0 || wsum <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / wsum
		fl := math.Floor(exact)
		out[i] = int(fl)
		used += out[i]
		rems[i] = rem{idx: i, frac: exact - fl}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < total-used; k++ {
		out[rems[k%n].idx]++
	}
	return out
}

// shrinkToBudget rescales a job below its (reduced) budget immediately:
// tasks are trimmed from the most-parallel operator first (ties: lowest
// operator index), never below one task per operator. Grows are left to
// the job's own next decision — the controller explores its widened
// budget with its GP posteriors, not a blind scale-up.
func (m *Manager) shrinkToBudget(js *jobState) error {
	desired := js.t.Flink().Parallelism()
	if mathx.SumInts(desired) <= js.budget {
		return nil
	}
	for mathx.SumInts(desired) > js.budget {
		best := -1
		for i, n := range desired {
			if n > 1 && (best < 0 || n > desired[best]) {
				best = i
			}
		}
		if best < 0 {
			break // all operators at 1; floor ≤ budget makes this unreachable
		}
		desired[best]--
	}
	m.emit(event.TypeShrink, js.spec.Name, "", int64(mathx.SumInts(desired)))
	m.tracer.Event("fleet", "shrink",
		telemetry.Str("job", js.spec.Name), telemetry.Int("to", mathx.SumInts(desired)))
	if err := js.t.Flink().Rescale(desired); err != nil {
		return fmt.Errorf("fleet: shrinking job %s: %w", js.spec.Name, err)
	}
	js.usage = mathx.SumInts(desired)
	return nil
}
