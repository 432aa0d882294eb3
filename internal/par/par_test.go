package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForExactlyOnce: every index runs exactly once at any worker count,
// including counts above n and the automatic count.
func TestForExactlyOnce(t *testing.T) {
	const n = 97
	for _, workers := range []int{-3, 0, 1, 2, 3, 7, 64, 200} {
		counts := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForSerialOrder: one worker visits the indices in ascending order
// on the calling goroutine, so fn may append to caller state unlocked.
func TestForSerialOrder(t *testing.T) {
	var got []int
	For(40, 1, func(i int) { got = append(got, i) })
	if len(got) != 40 {
		t.Fatalf("visited %d of 40 indices", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken at %d: %v", i, got[:i+1])
		}
	}
}

// TestForAutomaticIsSerialAtOneProc: the automatic count at GOMAXPROCS 1
// is one worker, so it too runs in index order.
func TestForAutomaticIsSerialAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got []int
	For(10, 0, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("GOMAXPROCS=1 order broken at %d: %v", i, got)
		}
	}
}

// TestForEmpty: n = 0 never calls fn, at any worker count.
func TestForEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		For(0, workers, func(i int) { t.Fatalf("workers=%d: fn called with %d", workers, i) })
	}
}

// TestForFewerItemsThanWorkers: n < workers spawns at most n goroutines,
// so every goroutine has work and no index is skipped.
func TestForFewerItemsThanWorkers(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	For(3, 16, func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("n=3 workers=16 visited %v", seen)
	}
}

// TestForJoinsBeforeReturn: every write fn makes is visible once For
// returns, with no further synchronisation (the race detector checks the
// happens-before edge).
func TestForJoinsBeforeReturn(t *testing.T) {
	const n = 256
	out := make([]int, n)
	For(n, 8, func(i int) {
		runtime.Gosched()
		out[i] = i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d after For returned, want %d", i, v, i*i)
		}
	}
}

// TestForResultsIndependentOfWorkers: a computation reduced in index
// order gives identical results at every worker count — the property the
// fleet's byte-identical traces rest on.
func TestForResultsIndependentOfWorkers(t *testing.T) {
	const n = 64
	run := func(workers int) []int64 {
		out := make([]int64, n)
		For(n, workers, func(i int) {
			v := int64(i)
			for k := 0; k < 1000; k++ {
				v = v*6364136223846793005 + 1442695040888963407
			}
			out[i] = v
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{0, 2, 7, 64} {
		got := run(workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d diverged", workers, i)
			}
		}
	}
}

// TestForRunsConcurrently: with four workers over four items, at least
// two calls are in flight at once, whatever GOMAXPROCS is.
func TestForRunsConcurrently(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		For(4, 4, func(int) {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			<-gate
			mu.Lock()
			inFlight--
			mu.Unlock()
		})
	}()
	for {
		mu.Lock()
		p := peak
		mu.Unlock()
		if p >= 2 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	<-done
}
