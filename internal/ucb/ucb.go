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

	// β_t and √β_t at t = betaT: weights computes them on the first read
	// after an observation, so a warm-start replay pays for none.
	beta, sqrtBeta float64
	betaT          int

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
	reg, err := gp.NewRegressor(cfg.Kernel, cfg.NoiseVar, cands)
	if err != nil {
		return nil, err
	}
	return &Searcher{
		reg:        reg,
		candidates: cands,
		acq:        cfg.Acquisition,
		explore:    cfg.ExplorationScale,
		refitEvery: cfg.RefitEvery,
		diam:       diam,
	}, nil
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
// the kernel hyperparameters on the configured schedule. An x whose
// dimension differs from the candidates' is rejected: the kernel could
// not compare it with them.
func (s *Searcher) Observe(x []float64, capacityObs float64) error {
	if len(x) != len(s.candidates[0]) {
		return fmt.Errorf("ucb: observed configuration has dimension %d, candidates %d", len(x), len(s.candidates[0]))
	}
	if err := s.reg.Observe(x, capacityObs); err != nil {
		return err
	}
	s.t++
	d := capacityObs - s.meanY
	s.meanY += d / float64(s.t)
	s.m2Y += d * (capacityObs - s.meanY)
	if s.refitEvery > 0 && s.t >= 5 && s.t%s.refitEvery == 0 {
		if err := s.refitHyperparams(); err != nil && !errors.Is(err, gp.ErrTooFewPoints) {
			return err
		}
	}
	return nil
}

// weights returns β_t and √β_t at the current t, computing them on the
// first read after t moved.
func (s *Searcher) weights() (beta, sqrtBeta float64) {
	if s.betaT != s.t {
		s.beta = Beta(s.t, len(s.candidates), confidenceDelta)
		s.sqrtBeta = math.Sqrt(s.beta)
		s.betaT = s.t
	}
	return s.beta, s.sqrtBeta
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
// observation), read from the regressor's candidate table.
func (s *Searcher) PosteriorAt(i int) (float64, float64, error) {
	if i < 0 || i >= len(s.candidates) {
		return 0, 0, fmt.Errorf("ucb: candidate index %d out of range", i)
	}
	if s.t == 0 {
		return 0, 0, ErrNoData
	}
	mu, variance, _, err := s.reg.PosteriorAt(i)
	return mu, variance, err
}

// Mean returns the posterior mean μ_t(x) (ErrNoData before any
// observation): from the regressor's candidate table when x is a
// candidate, else evaluated at x. A caller that knows x's candidate
// index reads CandidateMean instead, which skips the lookup.
//
//lint:hotpath
func (s *Searcher) Mean(x []float64) (float64, error) {
	if s.t == 0 {
		return 0, ErrNoData
	}
	if i := s.reg.CandidateIndex(x); i >= 0 {
		return s.reg.MeanAt(i)
	}
	return s.reg.Mean(x)
}

// CandidateMean is Mean at candidate i, read from the regressor's
// candidate table. i must index a candidate.
//
//lint:hotpath
func (s *Searcher) CandidateMean(i int) (float64, error) {
	if s.t == 0 {
		return 0, ErrNoData
	}
	return s.reg.MeanAt(i)
}

// OptimisticAt returns the upper confidence value μ(x) + s·√β_t·σ(x) at an
// arbitrary configuration, with s the searcher's exploration scale
// (ErrNoData before any observation). A candidate's μ and σ come from the
// regressor's candidate table; any other x is evaluated. The budget
// rebalancer scores candidate reallocations with this optimistic
// capacity so unexplored operators still attract tasks (plain posterior
// means are flat before exploration and would freeze the allocation).
// A caller that knows x's candidate index reads CandidateOptimistic.
//
//lint:hotpath
func (s *Searcher) OptimisticAt(x []float64) (float64, error) {
	if s.t == 0 {
		return 0, ErrNoData
	}
	if i := s.reg.CandidateIndex(x); i >= 0 {
		return s.CandidateOptimistic(i)
	}
	mu, variance, err := s.reg.Posterior(x)
	if err != nil {
		return 0, err
	}
	return s.optimistic(mu, math.Sqrt(variance)), nil
}

// CandidateOptimistic is OptimisticAt at candidate i, read from the
// regressor's candidate table. i must index a candidate.
//
//lint:hotpath
func (s *Searcher) CandidateOptimistic(i int) (float64, error) {
	if s.t == 0 {
		return 0, ErrNoData
	}
	mu, _, sd, err := s.reg.PosteriorAt(i)
	if err != nil {
		return 0, err
	}
	return s.optimistic(mu, sd), nil
}

// optimistic is μ + s·√β_t·σ.
func (s *Searcher) optimistic(mu, sd float64) float64 {
	_, sqrtBeta := s.weights()
	return mu + s.explore*sqrtBeta*sd
}

// ErrNoData is returned by Select before any observation; callers should
// fall back to an exploratory choice (Dragster uses the current
// configuration for the first slot, so this only happens at cold start).
var ErrNoData = errors.New("ucb: no observations yet")

// Select returns the candidate maximizing the acquisition for the given
// target capacity, along with its index and the β_t used. For the
// Conventional acquisition the target is ignored. x is the searcher's own
// copy of the candidate, not a fresh one: it is read-only and stays valid
// for the searcher's lifetime.
func (s *Searcher) Select(target float64) (x []float64, idx int, beta float64, err error) {
	if s.t == 0 {
		return nil, 0, 0, ErrNoData
	}
	// Score candidates from the regressor's candidate table: a candidate
	// another reader already filled this round costs nothing.
	beta, sqrtBeta := s.weights()
	bestScore := math.Inf(-1)
	idx = -1
	for i := range s.candidates {
		mu, _, sd, err := s.reg.PosteriorAt(i)
		if err != nil {
			return nil, 0, 0, err
		}
		// Eq. 18 of the paper literally writes β_t·σ², but the proof of
		// Theorem 1 manipulates β^{1/2}·σ confidence widths (Eq. 22), and
		// β·σ² is dimensionally a variance that swamps the |μ−y| tracking
		// term at realistic tuples/s scales; the bonus is therefore the
		// Srinivas-et-al β^{1/2}·σ form the proof supports.
		bonus := sqrtBeta * sd * s.explore
		score := mu + bonus // Conventional
		if s.acq == Extended {
			score = -math.Abs(mu-target) + bonus
		}
		if score > bestScore {
			bestScore, idx = score, i
		}
	}
	s.traceSelect(target, idx, beta)
	return s.candidates[idx], idx, beta, nil
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

// ProjectTasks is Π_X: it projects per-operator task counts onto the
// budget {Σ_i tasks_i ≤ B} in place, by repeatedly decrementing the
// operator whose last task is believed to contribute the least capacity
// relative to its target shortfall. loss(op, fromTasks) must return the
// estimated penalty of going from fromTasks to fromTasks−1 for that
// operator (larger = more valuable to keep). minTasks floors every
// operator (usually 1). Ties go to the lowest operator index. losses is
// the caller's scratch for the cached losses, at least len(tasks) long;
// its contents on entry do not matter. On error tasks may be left partly
// trimmed.
//
// loss must be a pure function of its arguments for the duration of one
// call: each operator's loss is computed once and cached, and a trim
// recomputes only the trimmed operator's entry, so the projection makes
// at most len(tasks) + excess loss calls instead of one per operator
// per trimmed task.
func ProjectTasks(tasks []int, losses []float64, budget, minTasks int, loss func(op, fromTasks int) float64) error {
	if budget < minTasks*len(tasks) {
		//lint:allow hotpath validation guard: the controller checks its budget against the operator count when it is set
		return fmt.Errorf("ucb: budget %d cannot host %d operators at min %d tasks", budget, len(tasks), minTasks)
	}
	if minTasks < 1 {
		return errors.New("ucb: minTasks must be ≥ 1")
	}
	total := 0
	for i, v := range tasks {
		if v < minTasks {
			tasks[i] = minTasks
			v = minTasks
		}
		total += v
	}
	if total <= budget {
		return nil
	}
	// losses[i] caches loss(i, tasks[i]) for every operator above the floor.
	losses = losses[:len(tasks)]
	for i, v := range tasks {
		if v > minTasks {
			losses[i] = loss(i, v)
		}
	}
	for total > budget {
		best := -1
		bestLoss := math.Inf(1)
		for i, v := range tasks {
			if v > minTasks && losses[i] < bestLoss {
				bestLoss, best = losses[i], i
			}
		}
		if best == -1 {
			// Cannot shrink further (all at minTasks) — guarded above, but
			// loss() returning +Inf everywhere also lands here.
			return errors.New("ucb: projection stuck above budget")
		}
		tasks[best]--
		total--
		if tasks[best] > minTasks && total > budget {
			losses[best] = loss(best, tasks[best])
		}
	}
	return nil
}
