package tree

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twohot/internal/keys"
	"twohot/internal/parsort"
)

// This file implements the build pipeline behind Build and NewDistributed,
// the one way either builds a tree.  The stages are
//
//  1. key computation over parallel chunks (element-wise keys.FromPosition),
//  2. a parallel sort of packed (key, index) records (parsort.SortKV),
//  3. a gather of the particle arrays into key order over parallel chunks,
//  4. subtree builds: the domain is split at a level chosen from the worker
//     count, each split cell's subtree is built into a private arena by the
//     workers (one after another when there is one), and a single-threaded
//     stitch replays the upper walk to install arenas and hash entries in
//     the recursive pre-order — the order a plain depth-first recursion over
//     the sorted keys would produce,
//  5. a final parallel internal-moment pass over the stitched upper cells,
//     level by level from the deepest.
//
// Every stage is deterministic independently of the worker count and of
// goroutine scheduling: stages 1 and 3 are element-wise, the sort order is
// total (ties broken by original index), the cell layout of stage 4 depends
// only on the sorted keys, and stage 5 computes each cell's moments from
// already-finished children with the same code the arenas use.  The
// equivalence suite in build_equiv_test.go pins every worker count
// bit-for-bit to that plain recursion, kept there as buildSerialReference.

// GrowSlice resizes a pooled buffer to length n, reallocating only when the
// capacity is exhausted.  Contents are unspecified (callers overwrite every
// element).  Shared by the build scratch here and the solver's persistent
// staging buffers in internal/core.
func GrowSlice[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// workerCount resolves Options.Workers (0 = GOMAXPROCS).
func (o *Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelChunks runs body over contiguous chunks of [0, n) on up to workers
// goroutines and waits for completion.
func parallelChunks(n, workers int, body func(lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sortParticles computes body keys for t.Pos and reorders t.Pos/t.Mass in
// place into canonical (key, original index) order, filling t.Keys and
// t.SortIndex.  All stages run over parallel chunks.
//
// When Options.Previous carries a compatible prior tree, the records are
// emitted in that tree's sorted order instead of array order: record slot i
// re-keys the particle that ended up in sorted slot i last step, so on a
// near-static snapshot the array is already almost in (key, index) order and
// SortKVAdaptive's merge path replaces the radix sort.  Each record still
// carries the particle's index in the caller's ordering, so the sorted record
// sequence — a total order over (key, caller index) — is exactly the one the
// from-scratch path produces, and everything built from it is bit-identical.
func (t *Tree) sortParticles(workers int) {
	n := len(t.Pos)
	sc := t.Opt.Scratch
	t.Opt.Scratch = nil // the tree must not retain the caller's scratch
	if sc == nil {
		sc = &BuildScratch{} // throwaway: plain allocations, nothing pooled
	}
	side := sc.flip
	sc.flip ^= 1
	recs := GrowSlice(&sc.recs, n)
	prev := t.Opt.Previous
	t.Opt.Previous = nil // never retain a chain of previous trees
	dirty := t.Opt.Dirty
	if prev != nil && len(prev.SortIndex) == n {
		order := prev.SortIndex
		// Key linearly (sequential reads of the fat position array), then
		// permute only the 8-byte keys into the previous order; permuting
		// during keying would turn every 24-byte position read into a cache
		// miss and hand back most of what the fast sort path saves.  keyTmp
		// borrows this build's retained key array — every record holds its
		// own key copy by the time the gather below overwrites it.
		keyTmp := GrowSlice(&sc.keys[side], n)
		parallelChunks(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keyTmp[i] = uint64(keys.FromPosition(t.Pos[i], t.Box, keys.Morton))
			}
		})
		// Arm the subtree-reuse path while keyTmp still holds this build's
		// keys in caller order (the gather below repurposes its backing).
		if dirty != nil && len(dirty) == n {
			t.prepareDirty(prev, dirty, keyTmp, sc)
		}
		parallelChunks(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := order[i]
				recs[i] = parsort.KV{Key: keyTmp[j], Idx: int32(j)}
			}
		})
		t0 := time.Now()
		st := parsort.SortKVAdaptive(recs, workers)
		t.Stats = BuildStats{Reused: true, FastPath: st.FastPath, Displaced: st.Displaced,
			SortTime: time.Since(t0)}
	} else {
		parallelChunks(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				recs[i] = parsort.KV{
					Key: uint64(keys.FromPosition(t.Pos[i], t.Box, keys.Morton)),
					Idx: int32(i),
				}
			}
		})
		t0 := time.Now()
		parsort.SortKV(recs, workers)
		t.Stats = BuildStats{SortTime: time.Since(t0)}
	}

	newPos := GrowSlice(&sc.gpos, n)
	newMass := GrowSlice(&sc.gmass, n)
	newKeys := GrowSlice(&sc.keys[side], n)
	idx := GrowSlice(&sc.idx[side], n)
	parallelChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := recs[i]
			newPos[i] = t.Pos[r.Idx]
			newMass[i] = t.Mass[r.Idx]
			newKeys[i] = r.Key
			idx[i] = int(r.Idx)
		}
	})
	parallelChunks(n, workers, func(lo, hi int) {
		copy(t.Pos[lo:hi], newPos[lo:hi])
		copy(t.Mass[lo:hi], newMass[lo:hi])
	})
	t.Keys = newKeys
	t.SortIndex = idx
}

// splitLevelFor picks the absolute level at which the domain is cut into
// independent build tasks: deep enough for a few tasks per worker (so
// clustered inputs load-balance), capped so the serial plan/stitch walk over
// the upper cells stays negligible.
func splitLevelFor(rootLevel, workers int) int {
	level := rootLevel + 1
	tasks := 8
	for tasks < 4*workers && level < rootLevel+3 && level < keys.MaxDepth {
		level++
		tasks *= 8
	}
	return level
}

// buildTask is one independent subtree build: the cell key and its particle
// range.  Tasks are emitted and stitched in DFS (key) order.
type buildTask struct {
	key          keys.Key
	first, count int
}

// arenaReuseInfo is one arena's dirty-set reuse bookkeeping: the pre-order
// contiguous copies as arena-local segments (rebased and published by the
// stitch phase) plus the counters covering every copy.
type arenaReuseInfo struct {
	segments        []ReusedSubtree
	subtrees, cells int
}

// arena accumulates one task's subtree with arena-local child indices.
// Arena builds only read shared tree state (sorted particles, background
// moments, options); the global cell array and hash table are mutated solely
// by the stitch phase on the calling goroutine.
type arena struct {
	t     *Tree
	cells []*Cell
	reuse arenaReuseInfo
}

// build constructs the subtree covering the key-sorted particle range
// [first, first+count) under key by depth-first recursion — making the
// dirty-set reuse check at every level — and computes all leaf and internal
// moments of the subtree.  Returns the arena-local root index.
func (a *arena) build(key keys.Key, first, count int) int32 {
	t := a.t
	if pi, ok := t.reusable(key, count); ok {
		return a.copySubtree(pi, first)
	}
	level := key.Level()
	c := t.newCell(key, first, count)
	idx := int32(len(a.cells))
	a.cells = append(a.cells, &c)

	if count <= t.Opt.LeafSize || level >= keys.MaxDepth {
		c.Leaf = true
		t.leafMoments(&c)
		return idx
	}
	lo := first
	for oct := 0; oct < 8; oct++ {
		childKey := key.Child(oct)
		hi := lo + t.childUpperBound(childKey, lo, first+count)
		if hi > lo {
			ci := a.build(childKey, lo, hi-lo)
			c.ChildIdx[oct] = ci
			c.ChildMask |= 1 << uint(oct)
		}
		lo = hi
	}
	t.internalMoments(&c, func(oct int) *Cell {
		if ci := c.ChildIdx[oct]; ci != NoChild {
			return a.cells[ci]
		}
		return nil
	})
	return idx
}

// buildRange constructs the subtree covering the key-sorted particle range
// [first, first+count) under root on up to workers goroutines and returns
// its index.  See the file comment for the stages.
func (t *Tree) buildRange(root keys.Key, first, count, workers int) int32 {
	splitLevel := splitLevelFor(root.Level(), workers)

	// taskHere decides, identically in the plan and stitch walks, whether a
	// cell is built whole by one task (leaves included: a range that the
	// recursion would turn into a leaf is a single-cell task).
	taskHere := func(level, count int) bool {
		return count <= t.Opt.LeafSize || level >= keys.MaxDepth || level >= splitLevel
	}

	// Phase 1: plan — walk the upper tree over key ranges only, emitting
	// tasks in DFS order.
	var tasks []buildTask
	var plan func(key keys.Key, first, count int)
	plan = func(key keys.Key, first, count int) {
		// A subtree the dirty-set path can copy whole is one task no matter
		// how high it sits: the copy is memory-bound and must not be split.
		if _, ok := t.reusable(key, count); ok || taskHere(key.Level(), count) {
			tasks = append(tasks, buildTask{key, first, count})
			return
		}
		lo := first
		for oct := 0; oct < 8; oct++ {
			childKey := key.Child(oct)
			hi := lo + t.childUpperBound(childKey, lo, first+count)
			if hi > lo {
				plan(childKey, lo, hi-lo)
			}
			lo = hi
		}
	}
	plan(root, first, count)

	// Phase 2: build every task's subtree into its own arena, workers
	// pulling tasks from an atomic cursor.
	arenas := make([][]*Cell, len(tasks))
	arenaReuse := make([]arenaReuseInfo, len(tasks))
	nw := workers
	if nw > len(tasks) {
		nw = len(tasks)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ti := int(cursor.Add(1)) - 1
				if ti >= len(tasks) {
					return
				}
				a := arena{t: t}
				a.build(tasks[ti].key, tasks[ti].first, tasks[ti].count)
				arenas[ti] = a.cells
				arenaReuse[ti] = a.reuse
			}
		}()
	}
	wg.Wait()

	// Phase 3: stitch — replay the planning walk on the calling goroutine,
	// appending upper cells and arena cells so that the cell array and the
	// hash-table insertion sequence follow the recursive pre-order exactly.
	// Upper-cell moments are deferred to phase 4.
	var upper []int32
	nextTask := 0
	var stitch func(key keys.Key, first, count int) int32
	stitch = func(key keys.Key, first, count int) int32 {
		// The reuse check must replay the planning walk's decision exactly;
		// both read only immutable state, so they cannot diverge.
		if _, reused := t.reusable(key, count); reused || taskHere(key.Level(), count) {
			base := int32(len(t.Cell))
			for _, c := range arenas[nextTask] {
				for o := range c.ChildIdx {
					if c.ChildIdx[o] != NoChild {
						c.ChildIdx[o] += base
					}
				}
				idx := int32(len(t.Cell))
				t.Cell = append(t.Cell, c)
				t.Hash.Put(c.Key, idx)
			}
			// Adopt the arena's reuse records, rebased to the global layout.
			ar := &arenaReuse[nextTask]
			for _, seg := range ar.segments {
				t.Reuse = append(t.Reuse, ReusedSubtree{
					PrevRoot: seg.PrevRoot, Root: seg.Root + base, NumCells: seg.NumCells,
				})
			}
			t.Stats.ReusedSubtrees += ar.subtrees
			t.Stats.ReusedCells += ar.cells
			nextTask++
			return base
		}
		c := t.newCell(key, first, count)
		idx := int32(len(t.Cell))
		t.Cell = append(t.Cell, &c)
		t.Hash.Put(key, idx)
		lo := first
		for oct := 0; oct < 8; oct++ {
			childKey := key.Child(oct)
			hi := lo + t.childUpperBound(childKey, lo, first+count)
			if hi > lo {
				ci := stitch(childKey, lo, hi-lo)
				t.Cell[idx].ChildIdx[oct] = ci
				t.Cell[idx].ChildMask |= 1 << uint(oct)
			}
			lo = hi
		}
		upper = append(upper, idx)
		return idx
	}
	rootIdx := stitch(root, first, count)

	// Phase 4: parallel internal-moment pass over the upper cells, level by
	// level from the deepest.  A level-L upper cell's children are either
	// arena roots (finished in phase 2) or level-L+1 upper cells (finished in
	// the previous wave), and each cell's computation touches only its own
	// expansion, so the waves are race-free and order-independent.
	if len(upper) > 0 {
		maxLevel := root.Level()
		byLevel := map[int][]int32{}
		for _, ci := range upper {
			l := t.Cell[ci].Level
			byLevel[l] = append(byLevel[l], ci)
			if l > maxLevel {
				maxLevel = l
			}
		}
		for l := maxLevel; l >= root.Level(); l-- {
			cells := byLevel[l]
			if len(cells) == 0 {
				continue
			}
			parallelChunks(len(cells), workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					t.computeInternalMoments(cells[i])
				}
			})
		}
	}
	return rootIdx
}
