// Package par is the one parallelism policy of the engine: Workers resolves a
// configured worker count once, and For spends it on a loop in static
// contiguous chunks.  Every parallel loop of the build, the walk, the mesh
// and its transforms, the initial conditions and the analysis runs through
// For on a budget Workers resolved, except the dynamic pools whose items
// differ too much in cost for equal chunks (DESIGN.md "One parallelism
// policy" names each).  No loop's result depends on its chunking, so no
// result bit depends on the worker count.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a configured worker count: n itself when positive,
// GOMAXPROCS otherwise (0 is every configuration's "use the machine").
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For splits [0, n) into at most workers contiguous chunks of
// ceil(n/workers) indices and runs body(lo, hi) on each concurrently,
// returning once every chunk has finished; a single chunk runs inline on the
// caller's goroutine.  With n <= workers every index is its own chunk, so a
// loop over per-worker shards gets one goroutine per shard.
func For(n, workers int, body func(lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}
