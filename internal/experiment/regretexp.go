package experiment

import (
	"fmt"
	"math"

	"dragster/internal/osp"
	"dragster/internal/regret"
	"dragster/internal/streamsim"
	"dragster/internal/workload"
)

// RegretResult is the Theorem-1 validation experiment: dynamic regret and
// dynamic fit of a Dragster run against a slowly-varying offered load,
// together with the theoretical envelopes.
type RegretResult struct {
	T int
	// Regret and Fit are the cumulative quantities of Eq. 10 / Eq. 12.
	Regret, Fit float64
	// PositiveFit accumulates only violations (max(0, l_i)) — the buffer
	// growth proxy.
	PositiveFit float64
	// AvgRegret[t] = Reg_t/(t+1); sub-linear regret ⇔ this decays.
	AvgRegret []float64
	// SublinearityRegret compares late-vs-early average regret; values
	// clearly below 1 demonstrate sub-linear growth.
	SublinearityRegret float64
	// RegretBound and FitBound evaluate Theorem 1's Eq. 19/20 envelopes.
	RegretBound, FitBound float64
	// VStar is the accumulated optimum variation of Assumption 2.
	VStar float64
}

// RegretRun executes the regret experiment on the given workload with the
// chosen level-1 method. The offered load cycles through three levels
// every max(T/10, 5) slots, keeping V(y*) bounded per Assumption 2.
func RegretRun(spec *workload.Spec, method osp.Method, T, slotSeconds int, seed int64) (*RegretResult, error) {
	if T < 8 {
		return nil, fmt.Errorf("experiment: regret run needs T ≥ 8, got %d", T)
	}
	mid := make([]float64, len(spec.HighRates))
	for i := range mid {
		mid[i] = (spec.HighRates[i] + spec.LowRates[i]) / 2
	}
	period := T / 10
	if period < 5 {
		period = 5
	}
	prof, err := workload.Cycle(period, spec.HighRates, mid, spec.LowRates, mid)
	if err != nil {
		return nil, err
	}
	factory := DragsterSaddle()
	if method == osp.GradientDescent {
		factory = DragsterOGD()
	}
	res, err := Run(Scenario{
		Spec:        spec,
		Rates:       prof,
		Slots:       T,
		SlotSeconds: slotSeconds,
		Seed:        seed,
	}, factory)
	if err != nil {
		return nil, err
	}

	acc := regret.NewAccountant()
	var positive float64
	var vStar float64
	var prevOpt *Optimum
	for _, tr := range res.Trace {
		opt := res.optimumAt(tr.Slot)
		if opt == nil {
			return nil, fmt.Errorf("experiment: no optimum for slot %d", tr.Slot)
		}
		if prevOpt != nil {
			vStar += math.Abs(opt.Throughput - prevOpt.Throughput)
		}
		prevOpt = opt
		if err := acc.Record(opt.Throughput, tr.SteadyThroughput, tr.Violations); err != nil {
			return nil, err
		}
		for _, l := range tr.Violations {
			if l > 0 {
				positive += l
			}
		}
	}

	subl, err := regret.SublinearityRatio(acc.RegretSeries())
	if err != nil {
		return nil, err
	}
	// Theorem 1 constants for this workload: H bounds the throughput
	// functions (the peak demand), G the objective gradient (≤ 1 for the
	// selectivity-chain workloads: one extra unit of capacity adds at most
	// one unit of sink throughput), ε the Slater slack at the largest
	// configuration.
	maxOpt, err := OptimalConfig(spec, spec.HighRates, 0)
	if err != nil {
		return nil, err
	}
	p := regret.BoundParams{
		T:           T,
		M:           spec.Graph.NumOperators(),
		D:           1,
		NCandidates: spec.MaxTasks,
		H:           2 * maxOpt.Throughput,
		G:           1,
		Epsilon:     0.05 * maxOpt.Throughput,
		SigmaNoise:  streamsim.CloudNoiseSigma * maxOpt.Throughput / 3,
		Delta:       2,
		VStar:       vStar,
	}
	fitBound := regret.FitBound(p)
	return &RegretResult{
		T:                  T,
		Regret:             acc.Regret(),
		Fit:                acc.Fit(),
		PositiveFit:        positive,
		AvgRegret:          regret.AverageSeries(acc.RegretSeries()),
		SublinearityRegret: subl,
		FitBound:           fitBound,
		RegretBound:        regret.RegretBound(p, math.Max(fitBound, positive)),
		VStar:              vStar,
	}, nil
}
