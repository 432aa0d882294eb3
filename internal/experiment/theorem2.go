package experiment

import (
	"fmt"

	"dragster/internal/dag"
	"dragster/internal/workload"
)

// Theorem2Result compares Dragster running with the exact throughput
// functions (Theorem 1's setting) against Dragster whose controller only
// has *learned* throughput functions fitted online from wrong priors
// (Theorem 2's setting). The theorem predicts the same regret order once
// the prediction error decays.
type Theorem2Result struct {
	// ExactConvMin and LearnedConvMin are the convergence times (minutes).
	ExactConvMin, LearnedConvMin float64
	// ExactRegret and LearnedRegret accumulate per-slot steady-throughput
	// regret against the phase optimum.
	ExactRegret, LearnedRegret float64
	// PriorK and LearnedK are the map-operator selectivity before and
	// after learning; TrueK is the ground truth (2.0 for WordCount).
	PriorK, LearnedK, TrueK float64
	// LearnerSamples counts the regression samples consumed.
	LearnerSamples int
}

// Theorem2Run executes both settings on WordCount at the high rate.
// priorScale distorts the controller's initial selectivity guesses (e.g.
// 0.5 = the controller initially believes half the true selectivity).
func Theorem2Run(priorScale float64, slots, slotSeconds int, seed int64) (*Theorem2Result, error) {
	if priorScale <= 0 {
		return nil, fmt.Errorf("experiment: priorScale %v must be positive", priorScale)
	}
	spec, err := workload.WordCount()
	if err != nil {
		return nil, err
	}
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		return nil, err
	}
	const trueMapK = 2.0 // WordCount map selectivity (see workload.WordCount)

	// Controller-side graph with learned selectivities starting from
	// distorted priors; the simulator keeps the exact spec graph.
	learnedGraph, mapLearner, err := workload.LearnedWordCount(priorScale)
	if err != nil {
		return nil, err
	}

	run := func(ctrlGraph *dag.Graph) (*Result, error) {
		return Run(Scenario{
			Spec:            spec,
			Rates:           rates,
			Slots:           slots,
			SlotSeconds:     slotSeconds,
			Seed:            seed,
			ControllerGraph: ctrlGraph,
		}, DragsterSaddle())
	}
	exact, err := run(nil)
	if err != nil {
		return nil, err
	}
	learned, err := run(learnedGraph)
	if err != nil {
		return nil, err
	}

	regretOf := func(res *Result) float64 {
		opt := res.OptimaByPhase[0].Throughput
		var r float64
		for _, tr := range res.Trace {
			r += opt - tr.SteadyThroughput
		}
		return r
	}
	exactConv, err := ConvergenceMinutes(exact)
	if err != nil {
		return nil, err
	}
	learnedConv, err := ConvergenceMinutes(learned)
	if err != nil {
		return nil, err
	}
	return &Theorem2Result{
		ExactConvMin:   exactConv,
		LearnedConvMin: learnedConv,
		ExactRegret:    regretOf(exact),
		LearnedRegret:  regretOf(learned),
		PriorK:         trueMapK * priorScale,
		LearnedK:       mapLearner.K(),
		TrueK:          trueMapK,
		LearnerSamples: mapLearner.Samples(),
	}, nil
}
