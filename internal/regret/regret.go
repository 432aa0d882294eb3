// Package regret implements the performance accounting of §4.2.4 and §5.2:
// the dynamic regret of Eq. 10, the dynamic fit of Eq. 12, and the
// Theorem 1 upper bounds they are compared against in the regret
// experiment.
package regret

import (
	"errors"
	"math"

	"dragster/internal/gp"
	"dragster/internal/ucb"
)

// Accountant accumulates regret and fit over an experiment.
type Accountant struct {
	regret, fit float64
	regretSer   []float64 // cumulative regret after each slot
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// Record folds in one slot: optimal and achieved objective values (Eq. 10
// uses f_t(y*_t) − f_t(y_t)) and the per-operator soft-constraint values
// l_i (Eq. 11; positive = violated).
func (a *Accountant) Record(optimal, achieved float64, violations []float64) error {
	if math.IsNaN(optimal) || math.IsNaN(achieved) {
		return errors.New("regret: NaN objective value")
	}
	a.regret += optimal - achieved
	for _, l := range violations {
		if math.IsNaN(l) {
			return errors.New("regret: NaN violation")
		}
		a.fit += l
	}
	a.regretSer = append(a.regretSer, a.regret)
	return nil
}

// Regret returns cumulative dynamic regret Reg_T.
func (a *Accountant) Regret() float64 { return a.regret }

// Fit returns cumulative dynamic fit Fit_T.
func (a *Accountant) Fit() float64 { return a.fit }

// RegretSeries returns the cumulative regret after each slot.
func (a *Accountant) RegretSeries() []float64 {
	return append([]float64(nil), a.regretSer...)
}

// AverageSeries converts a cumulative series into per-slot averages
// (series[t]/(t+1)); a sub-linear cumulative series has a vanishing
// average, which is what the regret experiment reports.
func AverageSeries(cumulative []float64) []float64 {
	out := make([]float64, len(cumulative))
	for i, v := range cumulative {
		out[i] = v / float64(i+1)
	}
	return out
}

// SublinearityRatio compares the average of the last quarter of an
// averaged series to the average of the second quarter. Ratios well below
// 1 indicate the cumulative quantity grows sub-linearly (its running
// average decays); ratios ≈ 1 indicate linear growth.
func SublinearityRatio(cumulative []float64) (float64, error) {
	if len(cumulative) < 8 {
		return 0, errors.New("regret: need at least 8 slots")
	}
	avg := AverageSeries(cumulative)
	q := len(avg) / 4
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	early := mean(avg[q : 2*q])
	late := mean(avg[3*q:])
	if math.Abs(early) < 1e-12 {
		return 0, nil
	}
	return late / early, nil
}

// BoundParams collects the problem constants of Theorem 1.
type BoundParams struct {
	T           int     // horizon (slots)
	M           int     // number of operators
	D           int     // configuration dimension d
	NCandidates int     // |X|, candidate-set size per operator
	H           float64 // upper bound of the throughput functions
	G           float64 // gradient bound of f_t
	Epsilon     float64 // Slater slack ε
	SigmaNoise  float64 // observation noise σ
	Delta       float64 // confidence δ ∈ (1, ∞)
	VStar       float64 // accumulated optimum variation V(y*_t)
}

// gpTerm is the shared M·sqrt(8·T·β_T·Γ_T / log(1+σ⁻²)) term.
func gpTerm(p BoundParams) float64 {
	beta := ucb.Beta(p.T, p.NCandidates, p.Delta)
	gamma := gp.SEInformationGainBound(p.T, p.D)
	return float64(p.M) * math.Sqrt(8*float64(p.T)*beta*gamma/math.Log(1+1/(p.SigmaNoise*p.SigmaNoise)))
}

// FitBound evaluates the Fit_T bound of Eq. 19.
func FitBound(p BoundParams) float64 {
	t := float64(p.T)
	m := float64(p.M)
	return math.Pow(m, 2.0/3)*p.H*(1+p.H/(2*p.Epsilon)) +
		p.H*math.Sqrt(t)/p.Epsilon +
		gpTerm(p)
}

// RegretBound evaluates the Reg_T bound of Eq. 20, given the realized (or
// bounded) Fit_T.
func RegretBound(p BoundParams, fitT float64) float64 {
	t := float64(p.T)
	m := float64(p.M)
	return math.Sqrt(t)*(p.G*p.G/2+p.VStar) +
		p.H*(m+(2+m*p.H)/(2*p.Epsilon))*fitT +
		p.G*gpTerm(p)
}
