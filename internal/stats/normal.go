package stats

import (
	"math"
	"math/rand"
)

// math/rand's NormFloat64 is a 128-strip ziggurat: it takes a draw j =
// int32(Uint32()), picks strip j&0x7f and, when |j| is below the
// strip's bound, returns float64(j)·w[strip] from that one draw (about
// 97% of calls; strip 1's bound is 0). RNG.Normal takes that branch
// itself, with the strip tables below, and hands every other draw to
// NormFloat64 on the unchanged state, so its stream is NormFloat64's
// bit for bit.
//
// The tables are recovered at init from NormFloat64's outputs rather
// than copied (see recoverZiggurat), as rngCooked is.
var (
	// normWidth[i] is strip i's width w[i] (a float32, widened).
	normWidth [128]float64
	// normBound[i] is one more than the largest positive first draw in
	// strip i that NormFloat64 returns on; 0 when none was found. It
	// never exceeds math/rand's own bound, so a draw below it is one
	// math/rand accepts.
	normBound [128]uint32
)

func init() { recoverZiggurat() }

// probeSource is a rand.Source that replays a crafted first draw and
// then returns 0, counting the draws taken. Every NormFloat64 call over
// it ends: a 0 draw lands in strip 0 at |j| = 0, which is accepted.
type probeSource struct {
	first int64
	calls int
}

// Int63 returns the crafted draw on the first call after acceptsFirst
// set it, and 0 after that.
func (p *probeSource) Int63() int64 {
	p.calls++
	if p.calls == 1 {
		return p.first
	}
	return 0
}

// Seed is a no-op: the probe's draws are set by acceptsFirst.
func (p *probeSource) Seed(int64) {}

// acceptsFirst runs r.NormFloat64 with a first draw whose Uint32 is j
// and reports the value and whether NormFloat64 returned it without a
// second draw.
func (p *probeSource) acceptsFirst(r *rand.Rand, j int32) (float64, bool) {
	p.first = int64(uint32(j)) << 31
	p.calls = 0
	x := r.NormFloat64()
	return x, p.calls == 1
}

// recoverZiggurat fills normWidth and normBound from NormFloat64 itself.
// Strip i's width comes from its draw j = i+128: the product of an
// 8-bit integer and a float32 is exact in float64, so x/j is the width
// bit for bit. The bound is a binary search over the strip's positive
// draws i+128m for the largest one NormFloat64 accepts; only accepted
// draws ever raise it, so a non-monotone strip could lower the bound
// (sending more draws to NormFloat64) but never admit a rejected draw.
func recoverZiggurat() {
	p := new(probeSource)
	//lint:allow detrand the probe replays crafted draws to read NormFloat64's strip tables; it draws nothing at random
	r := rand.New(p)
	for i := int32(0); i < 128; i++ {
		j := i + 128
		x, ok := p.acceptsFirst(r, j)
		if !ok {
			continue
		}
		normWidth[i] = x / float64(j)
		// lo is an accepted multiple, hi one past the strip's last draw
		// or a rejected one.
		lo, hi := int32(1), (math.MaxInt32-i)/128+1
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if _, ok := p.acceptsFirst(r, i+128*mid); ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		normBound[i] = uint32(i+128*lo) + 1
	}
}

// absInt32 is |i| as math/rand's ziggurat computes it (MinInt32 maps
// to 2³¹), without a branch: the sign of a draw is a coin flip, which a
// branch would mispredict half the time.
func absInt32(i int32) uint32 {
	m := i >> 31
	return uint32((i ^ m) - m)
}

// normFloat64 returns g.r.NormFloat64()'s next value. It reads the
// next draw without taking it; when the draw lands below its strip's
// recovered bound it takes it and returns float64(j)·w, NormFloat64's
// own first-draw result, and otherwise it calls NormFloat64 on the
// unchanged state.
//
//lint:hotpath
func (g *RNG) normFloat64() float64 {
	x, tap, feed := g.src.next()
	j := int32(uint32(x & rngMask >> 31)) // NormFloat64's int32(r.Uint32())
	if i := j & 0x7f; absInt32(j) < normBound[i] {
		g.src.take(x, tap, feed)
		return float64(j) * normWidth[i]
	}
	return g.r.NormFloat64()
}
