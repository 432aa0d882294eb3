package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestDistributionsMatchMathRand interleaves Normal, LogNormal, Float64
// and Intn on NewRNG with the same draws on rand.New(rand.NewSource)
// and requires bit-equal results, over the equality seeds and more than
// 10⁶ draws in all. Halfway through each seed both sides are reseeded
// in place, so the fast path is also pinned after RNG.Seed.
func TestDistributionsMatchMathRand(t *testing.T) {
	const perSeed = 5000
	seeds := equalitySeeds()
	if n := len(seeds) * perSeed; n < 1e6 {
		t.Fatalf("only %d draws", n)
	}
	for si, seed := range seeds {
		g := NewRNG(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < perSeed; k++ {
			if k == perSeed/2 {
				reseed := seeds[(si+1)%len(seeds)]
				g.Seed(reseed)
				want.Seed(reseed)
			}
			var a, b uint64
			switch k % 4 {
			case 0:
				mean, sigma := float64(k%7)-3, 0.01+float64(k%5)
				a, b = math.Float64bits(g.Normal(mean, sigma)), math.Float64bits(mean+sigma*want.NormFloat64())
			case 1:
				mu, sigma := -0.5*float64(k%3), 0.05*float64(1+k%4)
				a, b = math.Float64bits(g.LogNormal(mu, sigma)), math.Float64bits(math.Exp(mu+sigma*want.NormFloat64()))
			case 2:
				a, b = math.Float64bits(g.Float64()), math.Float64bits(want.Float64())
			case 3:
				n := 1 + k%97
				a, b = uint64(g.Intn(n)), uint64(want.Intn(n))
			}
			if a != b {
				t.Fatalf("seed %d draw %d (kind %d): RNG gives %#x, math/rand %#x", seed, k, k%4, a, b)
			}
		}
	}
}

// TestNormalFastPathReturnsOnFirstDraw: every draw j the fast path
// accepts is one NormFloat64 returns on without a second draw, with the
// value the fast path computes. Per strip it checks both ends of the
// accepted range on both signs and 64 draws in between; it also checks
// that the first positive draw past each bound is one NormFloat64
// rejects (the bound is tight) and that all but strip 1, whose
// math/rand bound is 0, have a fast path.
func TestNormalFastPathReturnsOnFirstDraw(t *testing.T) {
	p := new(probeSource)
	//lint:allow detrand the probe replays crafted draws to check NormFloat64's first-draw returns; it draws nothing at random
	r := rand.New(p)
	pick := rand.New(rand.NewSource(11))
	check := func(j int32) {
		t.Helper()
		i := j & 0x7f
		if absInt32(j) >= normBound[i] {
			t.Fatalf("draw %d: outside strip %d's bound %d", j, i, normBound[i])
		}
		x, ok := p.acceptsFirst(r, j)
		if !ok {
			t.Fatalf("draw %d (strip %d): NormFloat64 took a second draw", j, i)
		}
		if got := float64(j) * normWidth[i]; math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("draw %d (strip %d): fast path %v, NormFloat64 %v", j, i, got, x)
		}
	}
	empty := 0
	for i := int32(0); i < 128; i++ {
		b := normBound[i]
		if b == 0 {
			empty++
			if i != 1 {
				t.Errorf("strip %d has no fast path", i)
			}
			continue
		}
		top := int32(b - 1) // largest accepted positive draw
		if top&0x7f != i {
			t.Fatalf("strip %d: bound %d is not one past a draw of the strip", i, b)
		}
		if next := int64(top) + 128; next <= math.MaxInt32 {
			if _, ok := p.acceptsFirst(r, int32(next)); ok {
				t.Errorf("strip %d: draw %d past the bound is accepted too", i, next)
			}
		}
		// Negative draws of strip i are i−128m, of magnitude 128m−i; the
		// fast path takes those below b.
		ends := []int32{i, top}
		if mMax := (int64(b) - 1 + int64(i)) / 128; mMax >= 1 {
			ends = append(ends, i-128, int32(int64(i)-128*mMax))
		}
		for _, j := range ends {
			if j != 0 {
				check(j)
			}
		}
		for n := 0; n < 64; n++ {
			m := pick.Int63n(int64(b)/128 + 1)
			j := int32(int64(i) + 128*m)
			if pick.Intn(2) == 1 {
				j = int32(int64(i) - 128*m)
			}
			if j != 0 && absInt32(j) < b {
				check(j)
			}
		}
	}
	if empty > 1 {
		t.Errorf("%d strips have no fast path", empty)
	}
}

// BenchmarkNormal times one Normal draw, the per-tick CPU-noise draw of
// every noisy engine.
func BenchmarkNormal(b *testing.B) {
	b.ReportAllocs()
	g := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += g.Normal(0, 0.02)
	}
	_ = sink
}
