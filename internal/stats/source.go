package stats

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator with a
// cheaper seeding. Its state and outputs equal rand.NewSource(seed)'s bit
// for bit; only the way Seed fills the 607-word register differs.
//
// math/rand seeds by running the Park–Miller LCG x ← 48271·x mod (2³¹−1)
// serially from the seed: word i of the register is built from LCG
// states 21+3i, 22+3i and 23+3i, XOR'd with a fixed table (rngCooked).
// Every LCG state is x₀·48271^p mod (2³¹−1), so Seed multiplies the
// normalized seed by precomputed powers and the 607 words carry no
// serial dependence. Fleet admission seeds a generator for every
// capacity probe (reseeding the plan's one RNG in place) and a fresh RNG
// for every tenant, which makes the seeding, not the draws, the
// generator's cost.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	lcgMul  = 48271
	// lcgSkip is the LCG step at which word 0's first state is taken.
	lcgSkip = 21
)

// lcgPow[i] holds 48271^p mod (2³¹−1) for the LCG states p = 21+3i,
// 22+3i and 23+3i that register word i is built from.
var lcgPow [rngLen][3]uint64

// rngCooked is math/rand's seeding table, recovered from its outputs at
// init rather than copied (see recoverCooked).
var rngCooked [rngLen]int64

func init() {
	p := uint64(1)
	for k := 0; k < lcgSkip; k++ {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			lcgPow[i][j] = p
			p = mulMod(p, lcgMul)
		}
	}
	rngCooked = recoverCooked(1)
}

// mulMod returns x·y mod (2³¹−1) for 0 < x, y < 2³¹−1 by the Mersenne
// identity 2³¹ ≡ 1: the 62-bit product folds to below 2·(2³¹−1) and a
// second fold subtracts the modulus once if needed, without a branch.
// The result is never 0, nor the modulus, because the modulus is prime.
func mulMod(x, y uint64) uint64 {
	v := x * y
	r := v&lcgMod + v>>31
	return r&lcgMod + r>>31
}

// lcgStart maps a seed to the LCG's first state exactly as math/rand
// does: seed mod (2³¹−1), made positive, with 0 replaced.
func lcgStart(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgXor sets dst[i] to src[i] XOR the LCG part of register word i for
// first state x; dst and src may be the same table.
func lcgXor(dst, src *[rngLen]int64, x uint64) {
	for i := range dst {
		p := &lcgPow[i]
		dst[i] = src[i] ^ int64(mulMod(x, p[0]))<<40 ^ int64(mulMod(x, p[1]))<<20 ^ int64(mulMod(x, p[2]))
	}
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	lcgXor(&s.vec, &rngCooked, lcgStart(seed))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// next returns the word the next Uint64 call takes (before the Int63
// mask) and the ring positions it is taken at, leaving the state
// unchanged; take commits it.
//
//lint:hotpath
func (s *source) next() (x int64, tap, feed int) {
	tap, feed = s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	return s.vec[feed] + s.vec[tap], tap, feed
}

// take commits a word next returned: the state is then the one Uint64
// would have left.
//
//lint:hotpath
func (s *source) take(x int64, tap, feed int) {
	s.tap, s.feed, s.vec[feed] = tap, feed, x
}

// Uint64 returns a pseudo-random 64-bit integer: math/rand's step, with
// the tap 273 words behind the feed.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// recoverCooked reads math/rand's seeding table back out of
// rand.NewSource(seed): it recovers the seeded register v from the first
// 607 outputs o₁…o₆₀₇ and XORs out the seed's LCG part.
//
// Draw k adds the feed word (334−k mod 607) to the tap word (607−k) and
// writes the sum back to the feed word. For k = 274…607 the tap word was
// written by draw k−273, so v[(941−k) mod 607] = o_k − o_{k−273}; that
// recovers words 0…60 and 334…606. For k = 1…273 both words are
// unwritten, so v[334−k] = o_k − v[607−k] recovers words 61…333.
func recoverCooked(seed int64) [rngLen]int64 {
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is draw k; o[0] is unused
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	const feed0 = rngLen - rngTap // 334, the feed index before draw 1
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngLen+feed0-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[feed0-k] = o[k] - v[rngLen-k]
	}
	lcgXor(&v, &v, lcgStart(seed))
	return v
}
