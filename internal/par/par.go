// Package par is the module's one fan-out. Every parallel loop in the
// repository — the fleet's per-tenant decide pass, Repeat's per-seed
// runs, the GP's LML grid search and gridsweep's throughput grid — is a
// set of independent index-addressed computations, and For is the only
// place that spreads them over goroutines.
//
// The determinism contract is the caller's half of the bargain: fn
// writes only to its own index's slots, and the caller reduces those
// slots in index order after For returns. Under that discipline the
// worker count decides which goroutine computes a result, never which
// result is computed or the order it commits, so a seeded run is
// byte-identical at any worker count or GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
)

// For calls fn(i) exactly once for every i in [0, n) and returns only
// after every call has finished.
//
// workers ≤ 0 selects min(GOMAXPROCS, n) goroutines; a positive count is
// capped at n. Goroutine w takes the strided indices w, w+workers,
// w+2·workers, … . With one worker — workers == 1, a single index, or
// GOMAXPROCS 1 — fn runs on the calling goroutine in ascending index
// order, which is the mode a traced run needs (span emission is
// single-threaded by contract).
//
//lint:workerpool
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
