package tree

// Dirty-set subtree reuse.
//
// The incremental sort (Options.Previous) removes the re-sort cost of a
// near-static step, but the build still re-derives every cell and every
// moment.  This file removes that cost too for the parts of the tree that
// cannot have changed: when the caller marks exactly which particles moved
// since the previous build (Options.Dirty), whole subtrees whose particle
// content is untouched are copied from the previous tree — cell structure
// and multipole moments alike — and only the dirty spine (cells with at
// least one moved particle underneath) is rebuilt.
//
// Why a key-interval test is sufficient: the sort order is total over
// (body key, caller index), and an unmoved particle keeps its position,
// mass, key and caller index, so its sort record is bit-identical between
// steps.  A cell covers a body-key interval, so the set of unmoved records
// inside a cell is decided by their (unchanged) keys alone.  Collect the
// previous and the new body key of every dirty particle into a sorted set D;
// a cell whose body-key interval contains no element of D therefore holds
// exactly the records it held last step — same values, same relative order —
// merely shifted within the sorted arrays by however many dirty records
// crossed it.  Everything the build derives below such a cell (subdivision,
// leaf decisions, moments, Bmax, error norms) is a pure function of those
// records, so copying the previous subtree and shifting First by the
// crossing count is bit-identical to rebuilding it.
//
// The reuse decision is a pure function of (cell key, D, previous tree), so
// the planner, the arena builds and the stitch replay all make it at the
// same points and the built tree is bit-identical for every worker count —
// the same discipline as the rest of the pipeline, pinned by dirty_test.go.

import (
	"sort"

	"twohot/internal/keys"
	"twohot/internal/multipole"
)

// ReusedSubtree records one subtree the dirty-set build copied verbatim from
// the previous tree: NumCells cells in pre-order, starting at index PrevRoot
// in the previous tree's cell array and at Root in this one (cell i of the
// segment maps PrevRoot+i -> Root+i).  Consumers may transplant any per-cell
// quantity that is a pure function of a cell's particle content and subtree
// structure across the segment — the traversal's sink-bound cache does
// exactly that.  Copies that are not pre-order contiguous in the previous
// tree (possible only for trees not built by this package) are performed but
// not recorded.
type ReusedSubtree struct {
	PrevRoot, Root, NumCells int32
}

// prepareDirty arms the subtree-reuse path for this build: prev becomes the
// copy source and t.dirtyKeys the sorted set D of old and new body keys of
// the dirty particles.  newKeys holds this build's body keys in the caller's
// particle order.  A fully dirty set is detected up front and disables the
// path (nothing could be reused, and the D lookups would only slow the
// recursion down).
func (t *Tree) prepareDirty(prev *Tree, dirty []bool, newKeys []uint64, sc *BuildScratch) {
	if !t.dirtyCompatible(prev) {
		return
	}
	nd := 0
	for _, d := range dirty {
		if d {
			nd++
		}
	}
	if nd == len(dirty) {
		return
	}
	d := sc.dirty[:0]
	for s, orig := range prev.SortIndex {
		if dirty[orig] {
			d = append(d, prev.Keys[s])
		}
	}
	for i, isDirty := range dirty {
		if isDirty {
			d = append(d, newKeys[i])
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	sc.dirty = d
	t.dirtyKeys = d
	t.prev = prev
	t.reuseFrom = prev
	// Break the chain: prev's own reuse source was only needed while prev
	// was the current tree.  Without this, every step would retain the whole
	// history of trees.
	prev.reuseFrom = nil
}

// dirtyCompatible reports whether prev's cells and moments are valid copy
// sources for this build: same expansion order, leaf size, background
// density, root box and rank, and a purely local tree (a distributed tree's
// fetched remote cells carry state this build cannot reproduce).
func (t *Tree) dirtyCompatible(prev *Tree) bool {
	return prev != nil &&
		prev.Opt.Order == t.Opt.Order &&
		prev.Opt.LeafSize == t.Opt.LeafSize &&
		prev.Opt.RhoBar == t.Opt.RhoBar &&
		prev.Opt.Rank == t.Opt.Rank &&
		prev.Box == t.Box &&
		prev.FetchChildren == nil
}

// reusable decides whether the cell covering [first, first+count) of the
// sorted particle arrays can be copied from the previous tree, returning the
// previous tree's cell index.  The decision reads only immutable state (the
// sorted dirty-key set, the previous tree), so the parallel planner and the
// stitch replay reach identical verdicts.
func (t *Tree) reusable(key keys.Key, count int) (int32, bool) {
	if t.prev == nil {
		return 0, false
	}
	lo, hi := key.BodyRange()
	d := t.dirtyKeys
	i := sort.Search(len(d), func(i int) bool { return d[i] >= uint64(lo) })
	if i < len(d) && d[i] <= uint64(hi) {
		return 0, false
	}
	pi, ok := t.prev.Hash.Get(key)
	if !ok {
		return 0, false
	}
	pc := t.prev.Cell[pi]
	if pc.Remote || pc.RemotePos != nil || pc.NBodies != count {
		return 0, false
	}
	return pi, true
}

// copySubtree transplants the previous tree's subtree rooted at pIdx into
// the arena, with the particle range now starting at first.  Cells are
// appended in the previous subtree's pre-order (the order a rebuild would
// produce) with arena-local child indices, First is shifted uniformly, and
// each cell's expansion is copied value-for-value, never aliased, so no tree
// shares moment storage with its predecessor.  The copy is logged in the
// arena's reuse info (segments with arena-local Root; the stitch phase
// rebases and publishes them).  Returns the arena-local root index.
func (a *arena) copySubtree(pIdx int32, first int) int32 {
	t := a.t
	prev := t.prev
	delta := first - prev.Cell[pIdx].First
	base := int32(len(a.cells))
	contiguous := true
	var rec func(pi int32) int32
	rec = func(pi int32) int32 {
		pc := prev.Cell[pi]
		idx := int32(len(a.cells))
		if pi-pIdx != idx-base {
			contiguous = false
		}
		c := *pc
		c.First += delta
		e := multipole.NewExpansion(t.Opt.Order, pc.Exp.Center)
		e.CopyFrom(pc.Exp)
		c.Exp = e
		a.cells = append(a.cells, &c)
		for oct := 0; oct < 8; oct++ {
			if ci := pc.ChildIdx[oct]; ci != NoChild {
				c.ChildIdx[oct] = rec(ci)
			}
		}
		return idx
	}
	root := rec(pIdx)
	n := int32(len(a.cells)) - base
	a.reuse.subtrees++
	a.reuse.cells += int(n)
	if contiguous {
		a.reuse.segments = append(a.reuse.segments,
			ReusedSubtree{PrevRoot: pIdx, Root: base, NumCells: n})
	}
	return root
}

// ReuseSource returns the tree whose cells this build's Reuse segments refer
// to (nil when the dirty-set path did not run).  It is cleared when the
// source itself becomes a copy source, so holding the newest tree never
// retains more than one predecessor.
func (t *Tree) ReuseSource() *Tree { return t.reuseFrom }
