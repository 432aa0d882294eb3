package stats

import (
	"math"
	"math/rand"
	"testing"
)

// equalitySeeds are the seeds the source is pinned to rand.NewSource on:
// the normalization edge cases (0, the modulus and its neighbours, the
// int64 extremes, the seed 0 maps to) and 200 seeds derived from an
// independent stream.
func equalitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1,
		lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	r := rand.New(rand.NewSource(20260418))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// equalityDraws covers more than two turns of the 607-word ring, so
// every register word is read after it has been rewritten.
const equalityDraws = 2*rngLen + 13

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range equalitySeeds() {
		got := new(source)
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < equalityDraws; k++ {
			var g, w uint64
			if k%2 == 0 {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			} else {
				g, w = got.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d draw %d: source gives %#x, rand.NewSource %#x", seed, k, g, w)
			}
		}
	}
}

// TestNewRNGMatchesMathRand runs the distributions the simulator draws
// through (Float64, NormFloat64 and Intn on top of Int63) on NewRNG and
// on rand.New(rand.NewSource(seed)) and requires bit-equal streams.
func TestNewRNGMatchesMathRand(t *testing.T) {
	for _, seed := range equalitySeeds() {
		got := NewRNG(seed).r
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < equalityDraws; k++ {
			var g, w uint64
			switch k % 5 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 3:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			case 4:
				n := 1 + k%97
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			}
			if g != w {
				t.Fatalf("seed %d draw %d (kind %d): NewRNG gives %#x, math/rand %#x", seed, k, k%5, g, w)
			}
		}
	}
}

// TestSeedReproducesNewRNG: reseeding a generator in place after an
// arbitrary mix of Float64, Intn and NormFloat64 draws leaves it drawing
// exactly NewRNG(seed)'s stream, whatever it drew before.
func TestSeedReproducesNewRNG(t *testing.T) {
	g := NewRNG(20261019)
	pick := rand.New(rand.NewSource(7))
	for _, seed := range equalitySeeds() {
		for k, n := 0, pick.Intn(2*rngLen); k < n; k++ {
			switch pick.Intn(3) {
			case 0:
				g.Float64()
			case 1:
				g.Intn(1 + pick.Intn(1000))
			case 2:
				g.Normal(0, 1)
			}
		}
		g.Seed(seed)
		want := NewRNG(seed)
		for k := 0; k < equalityDraws; k++ {
			var a, b uint64
			switch k % 3 {
			case 0:
				a, b = math.Float64bits(g.Float64()), math.Float64bits(want.Float64())
			case 1:
				n := 1 + k%97
				a, b = uint64(g.Intn(n)), uint64(want.Intn(n))
			case 2:
				a, b = math.Float64bits(g.Normal(0, 1)), math.Float64bits(want.Normal(0, 1))
			}
			if a != b {
				t.Fatalf("seed %d draw %d: reseeded RNG gives %#x, NewRNG %#x", seed, k, a, b)
			}
		}
	}
}

// TestCookedTableIndependentOfSeed: the table recovered at init from
// seed 1 equals one recovered from other seeds, so the recovery reads
// math/rand's fixed table and not an artefact of the seed it used.
func TestCookedTableIndependentOfSeed(t *testing.T) {
	for _, seed := range []int64{89482311, -7, math.MaxInt64} {
		if got := recoverCooked(seed); got != rngCooked {
			t.Fatalf("table recovered from seed %d differs from the init table", seed)
		}
	}
}

func TestMulModMatchesSchrage(t *testing.T) {
	// math/rand's seedrand: Schrage's method for 48271·x mod (2³¹−1).
	seedrand := func(x int32) int32 {
		const q, r = 44488, 3399
		x = lcgMul*(x%q) - r*(x/q)
		if x < 0 {
			x += lcgMod
		}
		return x
	}
	x := int32(1)
	for p := 1; p < lcgSkip+3*rngLen; p++ {
		x = seedrand(x)
		if p < lcgSkip {
			continue
		}
		i, j := (p-lcgSkip)/3, (p-lcgSkip)%3
		if uint64(x) != lcgPow[i][j] {
			t.Fatalf("48271^%d: table %d, LCG chain %d", p, lcgPow[i][j], x)
		}
	}
	for _, v := range []uint64{1, 2, lcgMod - 1, lcgMod - 2, 1 << 30} {
		if got, want := mulMod(v, lcgMod-1), (v*(lcgMod-1))%lcgMod; got != want {
			t.Fatalf("mulMod(%d, M−1) = %d, want %d", v, got, want)
		}
	}
}

// BenchmarkNewRNG times one seeding: what a capacity probe or a tenant
// pays before its first draw.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NewRNG(int64(i)).Float64()
	}
	_ = sink
}
