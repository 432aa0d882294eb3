package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// On a host shared with other tenants' cores and caches, control rounds
// run up to twice as slow for seconds to minutes at a time, slowing the
// whole of a run. So the end-to-end times are taken at a nominal host speed: between
// instances the benchmark times a fixed reference mix that uses none of
// Dragster's code, and scales each instance's times by the host's speed
// relative to nominal, estimated from the reference times measured just
// before and after it. The mix covers the kinds of work a control round
// does: a pointer chase inside L2, one spilling out of the last-level
// cache, dense floating-point elimination and a sort. None of it
// allocates, so the Go heap the instances leave behind does not move it.

// refNominal is the reference mix's time on an uncontended host (two
// 2.1 GHz Xeon vCPUs): scaled times read as if the host ran the mix in
// refNominal.
const refNominal = 30 * time.Millisecond

// hostSensitivity is how much more control rounds slow than the reference
// mix when the host is contended, in log terms: time per round goes as
// (reference time)^hostSensitivity. Fitted on the host above over
// contention phases of several minutes, where per-10 s medians of a fleet
// round and of the mix correlated at 0.99 with exponent 1.63 (1.5 to 1.9
// on other runs of both workloads); scaling by it cut the spread of those
// medians from 0.16 to 0.02 of their median.
const hostSensitivity = 1.6

// hostScale is the factor that takes an instance's times to the nominal
// host speed, given the reference mix's times just before and after it.
func hostScale(before, after time.Duration) float64 {
	ref := math.Sqrt(before.Seconds() * after.Seconds())
	return math.Pow(refNominal.Seconds()/ref, hostSensitivity)
}

type hostRef struct {
	l2, llc          []uint32 // single-cycle pointer chases
	lu, luSrc        []float64
	sortBuf, sortSrc []float64
}

const (
	refL2Len    = 1 << 16 // 256 KiB of uint32
	refL2Steps  = 1_600_000
	refLLCLen   = 1 << 21 // 8 MiB of uint32
	refLLCSteps = 80_000
	refLUN      = 48
	refLUReps   = 160
	refSortLen  = 70_000
)

var refSink float64

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{
		l2:      chaseCycle(rng, refL2Len),
		llc:     chaseCycle(rng, refLLCLen),
		lu:      make([]float64, refLUN*refLUN),
		luSrc:   make([]float64, refLUN*refLUN),
		sortBuf: make([]float64, refSortLen),
		sortSrc: make([]float64, refSortLen),
	}
	for i := range h.luSrc {
		h.luSrc[i] = rng.Float64()
		if i%(refLUN+1) == 0 {
			h.luSrc[i] += refLUN // diagonally dominant
		}
	}
	for i := range h.sortSrc {
		h.sortSrc[i] = rng.Float64()
	}
	return h
}

// chaseCycle links n slots into one random cycle.
func chaseCycle(rng *rand.Rand, n int) []uint32 {
	perm := rng.Perm(n)
	c := make([]uint32, n)
	for i, p := range perm {
		c[p] = uint32(perm[(i+1)%n])
	}
	return c
}

// run times one pass of the reference mix.
func (h *hostRef) run() time.Duration {
	t := time.Now()
	var j uint32
	for i := 0; i < refL2Steps; i++ {
		j = h.l2[j]
	}
	var k uint32
	for i := 0; i < refLLCSteps; i++ {
		k = h.llc[k]
	}
	const n = refLUN
	a := h.lu
	for r := 0; r < refLUReps; r++ {
		copy(a, h.luSrc)
		for p := 0; p < n; p++ {
			for i := p + 1; i < n; i++ {
				f := a[i*n+p] / a[p*n+p]
				for c := p; c < n; c++ {
					a[i*n+c] -= f * a[p*n+c]
				}
			}
		}
	}
	copy(h.sortBuf, h.sortSrc)
	sort.Float64s(h.sortBuf)
	refSink += float64(j+k) + a[n*n-1] + h.sortBuf[0]
	return time.Since(t)
}
