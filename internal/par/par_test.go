package par

import (
	"runtime"
	"sync"
	"testing"
)

func TestWorkers(t *testing.T) {
	for n, want := range map[int]int{3: 3, 1: 1, 0: runtime.GOMAXPROCS(0), -2: runtime.GOMAXPROCS(0)} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestForChunks pins For's schedule: the chunks cover [0, n) exactly once,
// in at most workers contiguous ranges of ceil(n/workers) indices, one per
// index when n <= workers, and a single inline range for one worker.
func TestForChunks(t *testing.T) {
	for _, tc := range []struct{ n, workers, chunks int }{
		{0, 4, 1}, {1, 4, 1}, {3, 4, 3}, {4, 4, 4}, {5, 4, 3}, {7, 2, 2}, {100, 3, 3}, {100, 1, 1}, {100, 0, 1},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		calls := 0
		For(tc.n, tc.workers, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		if calls != tc.chunks {
			t.Errorf("n=%d workers=%d: %d chunks, want %d", tc.n, tc.workers, calls, tc.chunks)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}
