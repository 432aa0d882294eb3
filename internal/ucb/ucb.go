// Package ucb implements the level-2 optimizer of Dragster: the extended
// Gaussian-Process UCB acquisition of Eq. 18,
//
//	x_t = Π_X[ argmax_x  −|μ_{t−1}(x) − y_t| + β_{t−1}·σ²_{t−1}(x) ],
//
// with the UCB weight schedule β_t = 2·log(|X|·t²·π²·δ/6) and the budget
// projection Π_X onto {Σ_i x_i ≤ B}. Unlike conventional GP-UCB (which
// maximizes μ + βσ²), the extended acquisition tracks a *target* capacity:
// it prefers configurations believed to deliver just enough capacity for
// the incoming load (Remark 1 of the paper), which is what produces the
// cost savings on down-scaling.
package ucb

import (
	"errors"
	"fmt"
	"math"

	"dragster/internal/gp"
	"dragster/internal/telemetry"
)

// Acquisition selects the scoring rule.
type Acquisition int

// Acquisitions. Extended is the paper's target-tracking rule; Conventional
// is classic GP-UCB maximization (Remark 1's comparison).
const (
	Extended Acquisition = iota
	Conventional
)

// String implements fmt.Stringer.
func (a Acquisition) String() string {
	switch a {
	case Extended:
		return "extended"
	case Conventional:
		return "conventional"
	default:
		return fmt.Sprintf("Acquisition(%d)", int(a))
	}
}

// Beta returns the UCB weight β_t = 2·log(|X|·t²·π²·δ/6) for candidate-set
// size nCandidates and confidence parameter δ ∈ (1, ∞). t is clamped to 1.
func Beta(t, nCandidates int, delta float64) float64 {
	if t < 1 {
		t = 1
	}
	arg := float64(nCandidates) * float64(t) * float64(t) * math.Pi * math.Pi * delta / 6
	if arg < math.E { // keep β positive even for tiny candidate sets
		arg = math.E
	}
	return 2 * math.Log(arg)
}

// confidenceDelta is the confidence parameter δ ∈ (1, ∞) of Theorem 1
// that every Searcher's β_t uses. The paper leaves δ free; 2 is sensible.
const confidenceDelta = 2

// Searcher runs the per-operator Bayesian search. Each Dragster operator
// owns one Searcher over its candidate configuration list. Not safe for
// concurrent use.
type Searcher struct {
	reg        *gp.Regressor
	candidates [][]float64
	acq        Acquisition
	explore    float64
	refitEvery int
	t          int // observations consumed (the UCB round counter)

	// diam caches candidateDiameter: the candidate list is immutable, so
	// the hyperparameter-refit hot loop must not rescan it.
	diam float64

	// Running target moments (Welford, insertion order — bit-identical to
	// rescanning reg.Observations() per refit, without the O(n) copy).
	meanY, m2Y float64

	// Cross-covariance cache for Select: crossK[j*C+ci] = k(x_j, cand_ci)
	// over the regressor's rows (row-major so a new row appends one
	// contiguous block of C entries), crossKxx[ci] = k(cand_ci, cand_ci).
	// Valid only while crossEpoch matches the regressor's kernel epoch; a
	// kernel swap (hyperparameter refit) forces a full recompute.
	crossK     []float64
	crossKxx   []float64
	crossN     int // rows covered by crossK
	crossEpoch uint64
	kxScratch  []float64 // per-candidate gather buffer for PosteriorFromCross

	// observability hooks; nil-safe, see internal/telemetry.
	tracer *telemetry.Tracer
	label  string
}

// SetTracer installs (or, with nil, removes) the observability tracer,
// forwarding it to the underlying regressor. label identifies this
// searcher in span attributes (typically the operator name). The searcher
// emits one "select" event per acquisition round and one "refit_hyper"
// span per LML grid search; the grid search's worker goroutines never
// touch the tracer (spans bracket the call, not the workers).
func (s *Searcher) SetTracer(tr *telemetry.Tracer, label string) {
	s.tracer = tr
	s.label = label
	s.reg.SetTracer(tr, label)
}

// Config assembles a Searcher.
type Config struct {
	// Kernel defaults to a squared-exponential with length scale covering
	// ~20% of the candidate range and unit variance scaled to CapacityScale.
	Kernel gp.Kernel
	// NoiseVar is the observation noise σ² of Eq. 8 samples (required).
	NoiseVar float64
	// Candidates is the operator's configuration list (required, copied).
	Candidates [][]float64
	// Acquisition defaults to Extended.
	Acquisition Acquisition
	// ExplorationScale multiplies the exploration bonus (default 1, the
	// theoretical schedule). Practical deployments shrink it — the paper's
	// sklearn implementation normalizes targets, which has the same
	// effect — because the raw β_t bonus in tuples/s units keeps
	// exploring long after the posterior is decision-grade.
	ExplorationScale float64
	// RefitEvery re-fits the SE-kernel hyperparameters by log-marginal-
	// likelihood grid search every RefitEvery observations (0 disables).
	// This mirrors the sklearn GaussianProcessRegressor's per-fit
	// optimizer the paper's implementation used.
	RefitEvery int
}

// NewSearcher validates cfg and returns a Searcher.
func NewSearcher(cfg Config) (*Searcher, error) {
	if len(cfg.Candidates) == 0 {
		return nil, errors.New("ucb: no candidates")
	}
	dim := len(cfg.Candidates[0])
	if dim == 0 {
		return nil, errors.New("ucb: zero-dimensional candidates")
	}
	cands := make([][]float64, len(cfg.Candidates))
	for i, c := range cfg.Candidates {
		if len(c) != dim {
			return nil, fmt.Errorf("ucb: candidate %d has dimension %d, want %d", i, len(c), dim)
		}
		cands[i] = append([]float64(nil), c...)
	}
	if cfg.ExplorationScale == 0 {
		cfg.ExplorationScale = 1
	}
	if cfg.ExplorationScale < 0 {
		return nil, fmt.Errorf("ucb: negative exploration scale %v", cfg.ExplorationScale)
	}
	if cfg.RefitEvery < 0 {
		return nil, fmt.Errorf("ucb: negative refit interval %d", cfg.RefitEvery)
	}
	if cfg.Acquisition != Extended && cfg.Acquisition != Conventional {
		return nil, fmt.Errorf("ucb: unknown acquisition %v", cfg.Acquisition)
	}
	diam := candidateDiameter(cands)
	if cfg.Kernel == nil {
		// Length scale ≈ 20% of the candidate diameter in each dimension.
		k, err := gp.NewSquaredExponential(math.Max(0.2*diam, 1e-3), 1)
		if err != nil {
			return nil, err
		}
		cfg.Kernel = k
	}
	reg, err := gp.NewRegressor(cfg.Kernel, cfg.NoiseVar)
	if err != nil {
		return nil, err
	}
	s := &Searcher{
		reg:        reg,
		candidates: cands,
		acq:        cfg.Acquisition,
		explore:    cfg.ExplorationScale,
		refitEvery: cfg.RefitEvery,
		diam:       diam,
		crossKxx:   make([]float64, len(cands)),
		crossEpoch: reg.KernelEpoch(),
	}
	for ci, cand := range s.candidates {
		s.crossKxx[ci] = reg.Kernel().Eval(cand, cand)
	}
	return s, nil
}

func candidateDiameter(cands [][]float64) float64 {
	var maxD float64
	for d := range cands[0] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range cands {
			if c[d] < lo {
				lo = c[d]
			}
			if c[d] > hi {
				hi = c[d]
			}
		}
		if hi-lo > maxD {
			maxD = hi - lo
		}
	}
	return maxD
}

// Observe feeds one Eq. 8 capacity sample for configuration x, refitting
// the kernel hyperparameters on the configured schedule.
func (s *Searcher) Observe(x []float64, capacityObs float64) error {
	if err := s.reg.Observe(x, capacityObs); err != nil {
		return err
	}
	s.t++
	d := capacityObs - s.meanY
	s.meanY += d / float64(s.t)
	s.m2Y += d * (capacityObs - s.meanY)
	s.appendCross(x)
	if s.refitEvery > 0 && s.t >= 5 && s.t%s.refitEvery == 0 {
		if err := s.refitHyperparams(); err != nil && !errors.Is(err, gp.ErrTooFewPoints) {
			return err
		}
	}
	return nil
}

// appendCross extends the cross-covariance cache when the observation
// just fed opened a new row — O(C) kernel evaluations instead of the
// O(C·n) a full rebuild costs. A repeated configuration adds no row and
// leaves the cache as it is. If the cache is stale (kernel swapped since
// the last sync) the append is skipped and Select's syncCross rebuilds it.
func (s *Searcher) appendCross(x []float64) {
	if s.crossEpoch != s.reg.KernelEpoch() || s.crossN != s.reg.Rows()-1 {
		return
	}
	k := s.reg.Kernel()
	for _, cand := range s.candidates {
		s.crossK = append(s.crossK, k.Eval(x, cand))
	}
	s.crossN++
}

// syncCross brings the cross-covariance cache up to date with the
// regressor: a no-op in steady state (appendCross keeps it current), a
// catch-up append if rows arrived out of band, and a full O(C·n)
// recompute after a kernel swap — kernel swaps invalidate every cached
// covariance, including the candidate self-covariances.
func (s *Searcher) syncCross() {
	epoch := s.reg.KernelEpoch()
	n := s.reg.Rows()
	if s.crossEpoch == epoch && s.crossN == n {
		return
	}
	k := s.reg.Kernel()
	if s.crossEpoch != epoch {
		s.crossK = s.crossK[:0]
		s.crossN = 0
		s.crossEpoch = epoch
		for ci, cand := range s.candidates {
			s.crossKxx[ci] = k.Eval(cand, cand)
		}
	}
	if s.crossN < n {
		xs, _ := s.reg.Observations()
		for i := s.crossN; i < n; i++ {
			for _, cand := range s.candidates {
				s.crossK = append(s.crossK, k.Eval(xs[i], cand))
			}
		}
		s.crossN = n
	}
}

// refitHyperparams runs the parallel LML grid search over scales derived
// from the cached candidate diameter and the running target variance.
func (s *Searcher) refitHyperparams() error {
	if s.t < 2 {
		return gp.ErrTooFewPoints
	}
	targetVar := s.m2Y / float64(s.t-1)
	if targetVar <= 0 {
		return nil // degenerate constant data; keep current kernel
	}
	grid, err := gp.DefaultHyperGrid(math.Max(s.diam, 1e-3), targetVar)
	if err != nil {
		return err
	}
	sp := s.tracer.Begin("gp", "refit_hyper",
		telemetry.Str("op", s.label),
		telemetry.Int("n", s.t),
		telemetry.Int("grid", len(grid.LengthScales)*len(grid.Variances)))
	defer sp.End()
	ls, variance, lml, err := s.reg.MaximizeLML(grid)
	if err != nil {
		sp.Annotate(telemetry.Str("error", err.Error()))
		return err
	}
	sp.Annotate(
		telemetry.Float("length_scale", ls),
		telemetry.Float("variance", variance),
		telemetry.Float("lml", lml))
	s.tracer.Metrics().Inc("ucb_hyper_refits")
	return nil
}

// Observations returns the number of samples consumed.
func (s *Searcher) Observations() int { return s.t }

// Regressor exposes the underlying GP (read-only use: information gain,
// posterior inspection, persistence).
func (s *Searcher) Regressor() *gp.Regressor { return s.reg }

// PosteriorAt returns μ, σ² at candidate index i (ErrNoData before any
// observation).
func (s *Searcher) PosteriorAt(i int) (float64, float64, error) {
	if i < 0 || i >= len(s.candidates) {
		return 0, 0, fmt.Errorf("ucb: candidate index %d out of range", i)
	}
	return s.reg.Posterior(s.candidates[i])
}

// OptimisticAt returns the upper confidence value μ(x) + s·√β_t·σ(x) at an
// arbitrary configuration, with s the searcher's exploration scale. The
// budget rebalancer scores candidate reallocations with this optimistic
// capacity so unexplored operators still attract tasks (plain posterior
// means are flat before exploration and would freeze the allocation).
func (s *Searcher) OptimisticAt(x []float64) (float64, error) {
	mu, variance, err := s.reg.Posterior(x)
	if err != nil {
		return 0, err
	}
	beta := Beta(s.t, len(s.candidates), confidenceDelta)
	return mu + s.explore*math.Sqrt(beta)*math.Sqrt(variance), nil
}

// ErrNoData is returned by Select before any observation; callers should
// fall back to an exploratory choice (Dragster uses the current
// configuration for the first slot, so this only happens at cold start).
var ErrNoData = errors.New("ucb: no observations yet")

// Select returns the candidate maximizing the acquisition for the given
// target capacity, along with its index and the β_t used. For the
// Conventional acquisition the target is ignored.
func (s *Searcher) Select(target float64) (x []float64, idx int, beta float64, err error) {
	if s.reg.Len() == 0 {
		return nil, 0, 0, ErrNoData
	}
	beta = Beta(s.t, len(s.candidates), confidenceDelta)
	// Score candidates from the cross-covariance cache: only rows that
	// appeared since the last Select (or a kernel swap) cost kernel
	// evaluations; the per-candidate posterior is then two cached-vector
	// triangular passes via PosteriorFromCross.
	s.syncCross()
	n := s.reg.Rows()
	c := len(s.candidates)
	if cap(s.kxScratch) < n {
		s.kxScratch = make([]float64, n)
	}
	kx := s.kxScratch[:n]
	bestScore := math.Inf(-1)
	idx = -1
	for i := 0; i < c; i++ {
		for j := 0; j < n; j++ {
			kx[j] = s.crossK[j*c+i]
		}
		mu, variance, err := s.reg.PosteriorFromCross(kx, s.crossKxx[i])
		if err != nil {
			return nil, 0, 0, err
		}
		// Eq. 18 of the paper literally writes β_t·σ², but the proof of
		// Theorem 1 manipulates β^{1/2}·σ confidence widths (Eq. 22), and
		// β·σ² is dimensionally a variance that swamps the |μ−y| tracking
		// term at realistic tuples/s scales; the bonus is therefore the
		// Srinivas-et-al β^{1/2}·σ form the proof supports.
		bonus := math.Sqrt(beta) * math.Sqrt(variance) * s.explore
		score := mu + bonus // Conventional
		if s.acq == Extended {
			score = -math.Abs(mu-target) + bonus
		}
		if score > bestScore {
			bestScore, idx = score, i
		}
	}
	s.traceSelect(target, idx, beta)
	return append([]float64(nil), s.candidates[idx]...), idx, beta, nil
}

// traceSelect emits the per-round acquisition event.
func (s *Searcher) traceSelect(target float64, idx int, beta float64) {
	s.tracer.Event("ucb", "select",
		telemetry.Str("op", s.label),
		telemetry.Str("acq", s.acq.String()),
		telemetry.Float("target", target),
		telemetry.Int("idx", idx),
		telemetry.Float("beta", beta))
	s.tracer.Metrics().Inc("ucb_selects")
}

// ProjectTasks is Π_X: it projects desired per-operator task counts onto
// the budget {Σ_i tasks_i ≤ B} by repeatedly decrementing the operator
// whose last task is believed to contribute the least capacity relative
// to its target shortfall. loss(op, fromTasks) must return the estimated
// penalty of going from fromTasks to fromTasks−1 for that operator
// (larger = more valuable to keep). minTasks floors every operator
// (usually 1). Ties go to the lowest operator index.
//
// loss must be a pure function of its arguments for the duration of one
// call: each operator's loss is computed once and cached, and a trim
// recomputes only the trimmed operator's entry, so the projection makes
// at most len(desired) + excess loss calls instead of one per operator
// per trimmed task.
func ProjectTasks(desired []int, budget, minTasks int, loss func(op, fromTasks int) float64) ([]int, error) {
	if budget < minTasks*len(desired) {
		return nil, fmt.Errorf("ucb: budget %d cannot host %d operators at min %d tasks", budget, len(desired), minTasks)
	}
	if minTasks < 1 {
		return nil, errors.New("ucb: minTasks must be ≥ 1")
	}
	out := append([]int(nil), desired...)
	total := 0
	for i, v := range out {
		if v < minTasks {
			out[i] = minTasks
			v = minTasks
		}
		total += v
	}
	if total <= budget {
		return out, nil
	}
	// losses[i] caches loss(i, out[i]) for every operator above the floor.
	losses := make([]float64, len(out))
	for i, v := range out {
		if v > minTasks {
			losses[i] = loss(i, v)
		}
	}
	for total > budget {
		best := -1
		bestLoss := math.Inf(1)
		for i, v := range out {
			if v > minTasks && losses[i] < bestLoss {
				bestLoss, best = losses[i], i
			}
		}
		if best == -1 {
			// Cannot shrink further (all at minTasks) — guarded above, but
			// loss() returning +Inf everywhere also lands here.
			return nil, errors.New("ucb: projection stuck above budget")
		}
		out[best]--
		total--
		if out[best] > minTasks && total > budget {
			losses[best] = loss(best, out[best])
		}
	}
	return out, nil
}
