package gp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dragster/internal/linalg"
	"dragster/internal/telemetry"
)

// ErrEmpty is returned when a posterior is requested before any
// observation has been added and no prior mean override is set.
var ErrEmpty = errors.New("gp: no observations")

// Regressor is an exact GP regressor y ~ GP(μ, k) + N(0, σ²) observed at a
// growing set of points. Each Dragster operator owns one Regressor over its
// configuration space (Eq. 7).
//
// The posterior follows Eq. 17 of the paper:
//
//	μ_t(x)  = k_t(x)ᵀ (K_t + σ²I)⁻¹ y_t
//	σ_t²(x) = k(x,x) − k_t(x)ᵀ (K_t + σ²I)⁻¹ k_t(x)
//
// Observations are centred on their empirical mean so unexplored regions
// revert to the mean rather than to zero.
//
// The regressor keeps one row per distinct configuration x_j, holding the
// count k_j of observations made there and the sum s_j of their targets.
// k noisy draws at one point are the same evidence as one draw of their
// mean with noise σ²/k, so row j enters the system with target s_j/k_j and
// noise σ²/k_j on its diagonal, and the posterior is the exact posterior
// of every observation. Controllers observe only grid points, so the row
// count — and with it every solve — is bounded by the candidate grid, not
// by the horizon.
//
// The Cholesky factor of K + σ²·diag(1/k_j) is maintained incrementally:
// a new configuration extends the factor by one bordered row in O(n²)
// (linalg.Cholesky.Extend), and a repeated one rewrites its diagonal entry
// (linalg.Cholesky.UpdateDiag); both are bit-identical to refactorizing
// from scratch. A full refactorization happens only on a kernel swap
// (SetKernel / MaximizeLML) or after a numerically failed update. The
// weights α are solved lazily, on the first read of μ after the
// observations changed, so a burst of Observes (a warm-start replay)
// pays for one α solve, not one per point. Posterior queries reuse
// per-regressor scratch buffers, so the steady-state query path is
// allocation-free. A Regressor is not safe for concurrent use.
type Regressor struct {
	kernel   Kernel
	noiseVar float64 // σ²

	// One row per distinct configuration, in first-seen order: xs[j] is
	// the point, counts[j] the observations made there and sums[j] the
	// sum of their targets in observation order.
	xs     [][]float64
	counts []int
	sums   []float64
	n      int     // observations, Σ counts
	ySum   float64 // running Σy over every observation, in observation order

	// fitted state. dirty means chol must be refactorized from scratch;
	// alphaStale means chol is current but mean and alpha must be
	// re-solved against it (ensureFit does both, in that order).
	dirty      bool
	alphaStale bool
	mean       float64
	chol       *linalg.Cholesky
	alpha      []float64 // (K+σ²·diag(1/k))⁻¹ (s/k − mean), one entry per row

	// The candidate cache, empty without candidates. cands is the finite
	// candidate set X (kept, not copied), candKxx[i] = k(c_i, c_i) and
	// crossK[j·C+i] = k(x_j, c_i) over the rows, row-major so a new row
	// appends one block of C entries; column appends the blocks of rows
	// observed since the last candidate read. table[i] is candidate i's
	// posterior, filled lazily and allocated on the first read. Observe
	// empties the table; SetKernel also refills candKxx and empties
	// crossK.
	cands   [][]float64
	candKxx []float64
	crossK  []float64
	table   []candidatePosterior

	// scratch buffers reused across queries (never returned to callers).
	kxBuf []float64
	vBuf  []float64

	// accumulated information gain ½ Σ log(1 + σ⁻²·σ²_{t−1}(x_t)),
	// the empirical counterpart of Γ_T in Theorem 1, one term per
	// observation.
	infoGain float64

	// observability hooks; nil-safe, see internal/telemetry.
	tracer *telemetry.Tracer
	label  string
}

// candidatePosterior is one candidate's entry in the regressor's table.
type candidatePosterior struct {
	mu       float64
	variance float64 // σ²
	sd       float64 // σ = √σ²
	fill     uint8   // fillNone, fillMean (μ only) or fillFull
}

// Fill levels of a table entry: a mean-only read skips the variance's
// triangular solve.
const (
	fillNone uint8 = iota
	fillMean
	fillFull
)

// NewRegressor returns a Regressor with the given kernel and observation
// noise variance σ² > 0 over a finite candidate set of points of one
// dimension, which may be nil. The candidates are kept, not copied.
// Reads at a candidate (MeanAt, PosteriorAt) and observations there
// take their kernel rows from a cache that costs C kernel evaluations
// per distinct observed point.
func NewRegressor(kernel Kernel, noiseVar float64, candidates [][]float64) (*Regressor, error) {
	if kernel == nil {
		return nil, errors.New("gp: nil kernel")
	}
	if noiseVar <= 0 {
		return nil, fmt.Errorf("gp: noise variance must be positive, got %v", noiseVar)
	}
	r := &Regressor{kernel: kernel, noiseVar: noiseVar, dirty: true,
		cands: candidates, candKxx: make([]float64, len(candidates))}
	r.resetCandidates()
	return r, nil
}

// resetCandidates evaluates every candidate's self-covariance under the
// current kernel and drops the cross-covariances and table entries
// computed under the previous one.
func (r *Regressor) resetCandidates() {
	for i, c := range r.cands {
		r.candKxx[i] = r.kernel.Eval(c, c)
	}
	r.crossK = r.crossK[:0]
	clear(r.table)
}

// SetTracer installs (or, with nil, removes) the observability tracer.
// label identifies this regressor in span attributes (typically the
// operator name). The regressor emits one "observe" event per sample and
// one "refit" span per from-scratch refactorization; the incremental
// Observe extension is deliberately untraced (it is the steady-state
// O(n²) fast path). Tracer calls happen only on the caller's goroutine —
// the parallel hyperparameter search never touches it.
func (r *Regressor) SetTracer(tr *telemetry.Tracer, label string) {
	r.tracer = tr
	r.label = label
}

// Kernel returns the kernel in use.
func (r *Regressor) Kernel() Kernel { return r.kernel }

// Len returns the number of observations made.
func (r *Regressor) Len() int { return r.n }

// Rows returns the number of distinct configurations observed: the order
// of the factored system.
func (r *Regressor) Rows() int { return len(r.xs) }

// Observations returns copies of the distinct observed points and, for
// each, the mean of the targets observed there, in first-seen order.
func (r *Regressor) Observations() ([][]float64, []float64) {
	xs := make([][]float64, len(r.xs))
	means := make([]float64, len(r.xs))
	for j, x := range r.xs {
		xs[j] = append([]float64(nil), x...)
		means[j] = r.sums[j] / float64(r.counts[j])
	}
	return xs, means
}

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient — and then geometrically, so a buffer that tracks a
// growing observation count reallocates O(log n) times. Contents are
// unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]float64, n-cap(buf))...)
	}
	return buf[:n]
}

// Observe records a noisy sample y at point x. Before storing, the
// predictive variance at x is folded into the running information gain —
// free of charge, since the factorization is already current. A point
// equal to an observed one, element for element, joins that point's row:
// its count and target sum grow and its diagonal entry σ²/k shrinks. Any
// other point is copied into a new row, and the kernel row k(x_j, x) the
// variance needed is also the border row of the bordered Gram matrix, so
// it is evaluated once — or not at all at a candidate, whose row and
// k(x, x) are cached. Either way the factor is updated in place and α
// is only marked stale. If the posterior is dirty (kernel swap, numerical
// failure) the next query falls back to a full refit.
func (r *Regressor) Observe(x []float64, y float64) error {
	if len(x) == 0 {
		return errors.New("gp: empty input point")
	}
	if len(r.xs) > 0 && len(x) != len(r.xs[0]) {
		return fmt.Errorf("gp: input dimension %d differs from existing %d", len(x), len(r.xs[0]))
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("gp: non-finite observation %v", y)
	}
	ci := r.CandidateIndex(x)
	var kxx float64
	if ci >= 0 {
		kxx = r.candKxx[ci]
	} else {
		kxx = r.kernel.Eval(x, x)
	}
	var kx []float64
	if r.n == 0 {
		r.infoGain += 0.5 * math.Log(1+kxx/r.noiseVar)
	} else if err := r.ensureFactor(); err == nil {
		if ci >= 0 {
			kx = r.column(ci)
		} else {
			kx = r.crossRow(x)
		}
		r.infoGain += 0.5 * math.Log(1+r.varianceFromCross(kx, kxx)/r.noiseVar)
	}
	r.n++
	r.ySum += y
	if r.tracer != nil { // the float attribute would format even untraced
		r.tracer.Event("gp", "observe",
			telemetry.Str("op", r.label),
			telemetry.Int("n", r.n),
			telemetry.Float("y", y))
	}
	r.tracer.Metrics().Inc("gp_observations")
	j := slices.IndexFunc(r.xs, func(p []float64) bool { return slices.Equal(p, x) })
	if j < 0 {
		j = len(r.xs)
		r.xs = append(r.xs, append([]float64(nil), x...))
		r.counts = append(r.counts, 0)
		r.sums = append(r.sums, 0)
	}
	r.counts[j]++
	r.sums[j] += y
	clear(r.table)
	if r.dirty {
		// No current factor to update (first point, kernel swap pending,
		// or an earlier fit failed); refit lazily on the next query.
		return nil
	}
	var err error
	if r.counts[j] == 1 {
		err = r.chol.Extend(kx, kxx+r.noiseVar)
	} else {
		err = r.chol.UpdateDiag(j, kxx+r.noiseVar/float64(r.counts[j]))
	}
	if err != nil {
		r.dirty = true // numerically degenerate; next query refits from scratch
		return nil
	}
	// The empirical mean moved, so α is re-solved against the updated
	// factor on the next read of μ.
	r.alphaStale = true
	return nil
}

// CandidateIndex returns the index of the candidate equal to x, element
// for element, or -1 when x is not a candidate.
func (r *Regressor) CandidateIndex(x []float64) int {
	return slices.IndexFunc(r.cands, func(c []float64) bool { return slices.Equal(c, x) })
}

// crossRow evaluates kx[i] = k(x_i, x) over the observations into the
// query scratch and returns it.
func (r *Regressor) crossRow(x []float64) []float64 {
	kx := growFloats(r.kxBuf, len(r.xs))
	r.kxBuf = kx
	for i := range r.xs {
		kx[i] = r.kernel.Eval(r.xs[i], x)
	}
	return kx
}

// InformationGain returns the accumulated empirical information gain,
// the quantity bounded by Γ_T in Theorem 1.
func (r *Regressor) InformationGain() float64 { return r.infoGain }

// factorSystem factorizes K + σ²·diag(1/k_j) over the rows xs with
// observation counts k under the given kernel. It is free of shared state
// so hyperparameter search can evaluate candidate kernels concurrently on
// a snapshot; refit uses it for the from-scratch path. Its Gram fill
// order and solveWeights' centring and solve order are the reference the
// incremental path must reproduce.
func factorSystem(xs [][]float64, counts []int, kernel Kernel, noiseVar float64) (*linalg.Cholesky, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrEmpty
	}
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, kernel.Eval(xs[i], xs[i]))
		for j := i + 1; j < n; j++ {
			v := kernel.Eval(xs[i], xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return factorGram(k, counts, noiseVar)
}

// factorGram adds the row noise σ²/k_j to the diagonal of the Gram
// matrix k in place and factorizes the result. The diagonal entry is
// k(x_j, x_j) + σ²/k_j in that float order, whichever path filled k.
func factorGram(k *linalg.Matrix, counts []int, noiseVar float64) (*linalg.Cholesky, error) {
	for i, c := range counts {
		k.Add(i, i, noiseVar/float64(c))
	}
	chol, err := linalg.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: refit: %w", err)
	}
	return chol, nil
}

// solveWeights returns the empirical mean ySum/n over all n observations
// and the centred weights α_j = ((K+σ²·diag(1/k))⁻¹(s/k − mean))_j against
// chol, written into dst when its capacity suffices. Both are a pure
// function of (chol, counts, sums, ySum, n), which is what lets the
// regressor defer the solve until μ is read.
func solveWeights(dst []float64, chol *linalg.Cholesky, counts []int, sums []float64, ySum float64, n int) (mean float64, alpha []float64) {
	mean = ySum / float64(n)
	alpha = growFloats(dst, len(sums))
	for j, s := range sums {
		alpha[j] = s/float64(counts[j]) - mean
	}
	chol.SolveVecInto(alpha, alpha)
	return mean, alpha
}

func (r *Regressor) refit() error {
	sp := r.tracer.Begin("gp", "refit",
		telemetry.Str("op", r.label),
		telemetry.Int("n", r.n))
	defer sp.End()
	r.tracer.Metrics().Inc("gp_refits")
	chol, err := factorSystem(r.xs, r.counts, r.kernel, r.noiseVar)
	if err != nil {
		sp.Annotate(telemetry.Str("error", err.Error()))
		return err
	}
	r.chol = chol
	r.dirty = false
	r.alphaStale = true
	return nil
}

// ensureFactor refits from scratch if a kernel swap or failed extension
// left the factorization stale. Readers of the factor alone (the
// information-gain variance) stop here.
func (r *Regressor) ensureFactor() error {
	if r.dirty {
		return r.refit()
	}
	return nil
}

// ensureFit brings the whole posterior up to date: the factor, then α
// when observations changed since the last solve. Every read of μ goes
// through it.
func (r *Regressor) ensureFit() error {
	if err := r.ensureFactor(); err != nil {
		return err
	}
	if r.alphaStale {
		r.mean, r.alpha = solveWeights(r.alpha, r.chol, r.counts, r.sums, r.ySum, r.n)
		r.alphaStale = false
	}
	return nil
}

// Posterior returns the predictive mean and variance at x (Eq. 17).
// With no observations it returns ErrEmpty. The query is allocation-free
// in steady state (scratch buffers are reused across calls).
func (r *Regressor) Posterior(x []float64) (mu, variance float64, err error) {
	if err := r.ensureFit(); err != nil {
		return 0, 0, err
	}
	kx := r.crossRow(x)
	return r.meanFromCross(kx), r.varianceFromCross(kx, r.kernel.Eval(x, x)), nil
}

// Mean returns the predictive mean μ_t(x) alone: the μ of Posterior bit
// for bit (same terms, same float order), without the O(n²) forward solve
// the variance needs. With no observations it returns ErrEmpty.
func (r *Regressor) Mean(x []float64) (float64, error) {
	if err := r.ensureFit(); err != nil {
		return 0, err
	}
	return r.meanFromCross(r.crossRow(x)), nil
}

// MeanAt returns the predictive mean at candidate i, Mean's value bit
// for bit, from the candidate table. i must index a candidate. With no
// observations it returns ErrEmpty.
//
//lint:hotpath
func (r *Regressor) MeanAt(i int) (float64, error) {
	e, err := r.candidate(i, fillMean)
	if err != nil {
		return 0, err
	}
	return e.mu, nil
}

// PosteriorAt returns the predictive mean, variance and standard
// deviation at candidate i from the candidate table: Posterior's μ and
// σ² bit for bit, and σ = √σ². i must index a candidate. With no
// observations it returns ErrEmpty.
//
//lint:hotpath
func (r *Regressor) PosteriorAt(i int) (mu, variance, sd float64, err error) {
	e, err := r.candidate(i, fillFull)
	if err != nil {
		return 0, 0, 0, err
	}
	return e.mu, e.variance, e.sd, nil
}

// candidate returns candidate i's table entry filled to at least the
// wanted level, computing what is missing from the cached column with the
// float expressions Mean and Posterior use. An empty regressor returns
// ErrEmpty before anything is fitted.
//
//lint:hotpath
func (r *Regressor) candidate(i int, want uint8) (*candidatePosterior, error) {
	if r.n == 0 {
		return nil, ErrEmpty
	}
	if r.table == nil {
		r.table = make([]candidatePosterior, len(r.cands))
	}
	e := &r.table[i]
	if e.fill >= want {
		return e, nil
	}
	if err := r.ensureFit(); err != nil {
		return nil, err
	}
	kx := r.column(i)
	e.mu = r.meanFromCross(kx)
	if want == fillFull {
		e.variance = r.varianceFromCross(kx, r.candKxx[i])
		e.sd = math.Sqrt(e.variance)
	}
	e.fill = want
	return e, nil
}

// column returns candidate i's cross-covariances k(x_j, c_i) over every
// row, gathered into the query scratch, after appending the cache block
// of each row observed since the last call.
//
//lint:hotpath
func (r *Regressor) column(i int) []float64 {
	c := len(r.cands)
	for j := len(r.crossK) / c; j < len(r.xs); j++ {
		for _, cand := range r.cands {
			r.crossK = append(r.crossK, r.kernel.Eval(r.xs[j], cand))
		}
	}
	kx := growFloats(r.kxBuf, len(r.xs))
	r.kxBuf = kx
	for j := range kx {
		kx[j] = r.crossK[j*c+i]
	}
	return kx
}

// meanFromCross returns μ = mean + Σ_j kx[j]·α_j in row order; the fit
// must be current and len(kx) == Rows().
func (r *Regressor) meanFromCross(kx []float64) float64 {
	mu := r.mean
	for i, a := range r.alpha {
		mu += kx[i] * a
	}
	return mu
}

// varianceFromCross returns σ²(x) = k(x,x) − ‖L⁻¹ k_t(x)‖², floored at 0,
// from the cross-covariance vector kx and kxx = k(x,x). Only the factor
// must be current.
func (r *Regressor) varianceFromCross(kx []float64, kxx float64) float64 {
	v := growFloats(r.vBuf, len(kx))
	r.vBuf = v
	r.chol.SolveLowerVecInto(v, kx)
	variance := kxx
	for _, vi := range v {
		variance -= vi * vi
	}
	if variance < 0 { // numerical floor
		variance = 0
	}
	return variance
}

// PosteriorBatch evaluates the posterior at every candidate, amortizing the
// refit. Results are parallel to candidates.
func (r *Regressor) PosteriorBatch(candidates [][]float64) (mus, variances []float64, err error) {
	mus = make([]float64, len(candidates))
	variances = make([]float64, len(candidates))
	for i, c := range candidates {
		mus[i], variances[i], err = r.Posterior(c)
		if err != nil {
			return nil, nil, err
		}
	}
	return mus, variances, nil
}

// LogMarginalLikelihood returns the log marginal likelihood of the row
// means s_j/k_j under noise σ²/k_j — useful for hyperparameter
// diagnostics. It differs from log p(y | X, θ) over the raw observations
// by a term that depends on σ² and the repeated targets but not on the
// kernel, so both rank kernels alike.
func (r *Regressor) LogMarginalLikelihood() (float64, error) {
	if err := r.ensureFit(); err != nil {
		return 0, err
	}
	return lmlFromFit(r.counts, r.sums, r.mean, r.alpha, r.chol), nil
}

// lmlFromFit evaluates the row-mean log marginal likelihood from a
// current fit: −½ (s/k − μ)ᵀα − ½ log det(K+σ²·diag(1/k)) − ½ n log 2π
// over n rows.
func lmlFromFit(counts []int, sums []float64, mean float64, alpha []float64, chol *linalg.Cholesky) float64 {
	var fit float64
	for j, s := range sums {
		fit += (s/float64(counts[j]) - mean) * alpha[j]
	}
	return -0.5*fit - 0.5*chol.LogDet() - 0.5*float64(len(sums))*math.Log(2*math.Pi)
}

// SEInformationGainBound returns the Theorem-1 asymptotic bound
// Γ_T = O((log T)^{d+1}) for the squared-exponential kernel, with unit
// constant — used by the regret experiment to compare empirical gain with
// the theoretical envelope.
func SEInformationGainBound(t int, dim int) float64 {
	if t < 2 {
		return 0
	}
	return math.Pow(math.Log(float64(t)), float64(dim+1))
}
