package experiment

import (
	"errors"
	"fmt"
	"math"
)

// NearOptimalFraction is the paper's convergence criterion: a
// configuration is near-optimal when its steady throughput reaches 90% of
// the phase optimum ("within 10% of the optimal throughput").
const NearOptimalFraction = 0.9

// EconomyFactor is the second half of the near-optimal test: the
// configuration must not use more than this multiple of the optimum's
// total tasks. Without it, a down-scaling phase would count as
// "converged" instantly — any over-provisioned configuration trivially
// achieves the (low) optimal throughput — which is clearly not how the
// paper's Table 2 measures its 40–90 minute down-phase convergence times.
const EconomyFactor = 1.5

// PhaseStats summarizes one offered-load phase of a run.
type PhaseStats struct {
	StartSlot, EndSlot int // [Start, End) in slots
	// ConvergenceSlots is the number of slots from the phase start until
	// the configuration first becomes near-optimal ("convergence time to
	// reach a near-optimal configuration", §6.2); -1 when it never does.
	// Later exploration excursions — which the GP-UCB schedule keeps
	// making by design — do not reset the clock.
	ConvergenceSlots int
	// ConvergenceMinutes = ConvergenceSlots × slot length; -1 when the
	// phase never converges.
	ConvergenceMinutes float64
	// Processed is the tuples absorbed during the phase.
	Processed float64
	// Cost is the dollars accrued during the phase.
	Cost float64
	// CostPerBillion is Cost / (Processed/1e9); Inf when nothing processed.
	CostPerBillion float64
	// OptimalThroughput is the phase optimum (steady tuples/s).
	OptimalThroughput float64
	// MeanThroughput is the measured per-slot mean across the phase.
	MeanThroughput float64
}

// Phases slices a Result into per-phase statistics.
func Phases(res *Result) ([]PhaseStats, error) {
	if res == nil || len(res.Trace) == 0 {
		return nil, errors.New("experiment: empty result")
	}
	slotMinutes := float64(res.SlotSecs) / 60
	var out []PhaseStats
	for pi, start := range res.PhaseStarts {
		end := res.Slots
		if pi+1 < len(res.PhaseStarts) {
			end = res.PhaseStarts[pi+1]
		}
		opt, ok := res.OptimaByPhase[start]
		if !ok {
			return nil, fmt.Errorf("experiment: missing optimum for phase at slot %d", start)
		}
		ps := PhaseStats{
			StartSlot:          start,
			EndSlot:            end,
			OptimalThroughput:  opt.Throughput,
			ConvergenceSlots:   -1,
			ConvergenceMinutes: -1,
		}
		var costStart float64
		if start > 0 {
			costStart = res.Trace[start-1].CostCum
		}
		threshold := NearOptimalFraction * opt.Throughput
		maxTasks := int(math.Ceil(EconomyFactor * float64(opt.TotalTasks)))
		conv := -1
		for s := start; s < end; s++ {
			tr := res.Trace[s]
			if tr.SteadyThroughput+1e-9 >= threshold && tr.TotalTasks <= maxTasks {
				conv = s
				break
			}
		}
		if conv >= 0 {
			ps.ConvergenceSlots = conv - start + 1 // slots consumed incl. the first near-optimal one
			ps.ConvergenceMinutes = float64(ps.ConvergenceSlots) * slotMinutes
		}
		var thSum float64
		for s := start; s < end; s++ {
			ps.Processed += res.Trace[s].Processed
			thSum += res.Trace[s].MeasuredThroughput
		}
		ps.MeanThroughput = thSum / float64(end-start)
		ps.Cost = res.Trace[end-1].CostCum - costStart
		if ps.Processed > 0 {
			ps.CostPerBillion = ps.Cost / (ps.Processed / 1e9)
		} else {
			ps.CostPerBillion = math.Inf(1)
		}
		out = append(out, ps)
	}
	return out, nil
}

// ConvergenceMinutes returns the first phase's convergence time, the
// number Fig. 5 reports per workload; -1 when the run never converged.
func ConvergenceMinutes(res *Result) (float64, error) {
	ph, err := Phases(res)
	if err != nil {
		return 0, err
	}
	return ph[0].ConvergenceMinutes, nil
}

// TotalProcessed sums absorbed tuples over the run.
func TotalProcessed(res *Result) float64 {
	var s float64
	for _, tr := range res.Trace {
		s += tr.Processed
	}
	return s
}

// TotalCost returns the dollars accrued over the run.
func TotalCost(res *Result) float64 {
	if len(res.Trace) == 0 {
		return 0
	}
	return res.Trace[len(res.Trace)-1].CostCum
}

// CostPerBillion is TotalCost normalized per 10⁹ processed tuples.
func CostPerBillion(res *Result) float64 {
	p := TotalProcessed(res)
	if p <= 0 {
		return math.Inf(1)
	}
	return TotalCost(res) / (p / 1e9)
}

// FinalSteadyThroughput returns the steady throughput of the last slot's
// configuration.
func FinalSteadyThroughput(res *Result) float64 {
	if len(res.Trace) == 0 {
		return 0
	}
	return res.Trace[len(res.Trace)-1].SteadyThroughput
}

// MeanLatency returns the run's mean per-slot end-to-end latency estimate
// (seconds) — the quantity the paper's bounded dynamic fit translates
// into ("the upper-bounded buffer size results in the low latency").
func MeanLatency(res *Result) float64 {
	if len(res.Trace) == 0 {
		return 0
	}
	var s float64
	for _, tr := range res.Trace {
		s += tr.AvgLatencySec
	}
	return s / float64(len(res.Trace))
}
