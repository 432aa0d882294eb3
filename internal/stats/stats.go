// Package stats provides the deterministic randomness used throughout
// the Dragster reproduction. Every stochastic component (cloud noise, GP
// observation noise, workload jitter) draws from a stats.RNG seeded
// explicitly, so experiments are reproducible run-to-run.
package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with the distributions the simulator needs.
// It is NOT safe for concurrent use; give each goroutine its own.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample from {0, ..., n-1}.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation. sigma must be non-negative.
func (g *RNG) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic("stats: Normal with negative sigma")
	}
	return mean + sigma*g.r.NormFloat64()
}

// LogNormal returns exp(Normal(mu, sigma)); handy for multiplicative cloud
// noise that must stay positive.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Uniform returns a uniform sample from [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}
