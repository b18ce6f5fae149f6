package traverse

// List-inheriting tree traversal.
//
// The legacy traversal (forcesForAllLegacy, the oracle in legacy_test.go)
// walks the source tree from the
// root once per sink leaf cell *per replica offset* — 27 root walks per group
// at WS=1, 125 at WS=2 — re-deciding the same far interactions for every
// group.  This file implements the hierarchical alternative: the sink tree is
// descended top-down carrying, for each sink cell, a work list whose entries
// are either *decided* (far cells, near-leaf particle blocks and background
// boxes that every descendant sink treats identically) or *open* (cells whose
// acceptance still depends on which descendant asks).  A child sink cell
// inherits the decided entries with a copy and spends acceptance tests only
// on the open frontier; replica offsets whose shifted root is accepted at the
// top of the descent are never walked again.
//
// Decisions at an internal sink cell S use interval bounds on the effective
// sink distance.  For a source cell at shifted center y and a sink leaf g
// (center gc, body radius gr) the legacy test uses d_g = |y-gc| - gr.  With
//
//	R(S) = max over leaves g under S of (|gc - Sc| + gr)
//	U(S) = max over leaves g under S of (|gc - Sc| - gr)
//
// every d_g lies in [|y-Sc| - R(S), |y-Sc| + U(S)].  The acceptance criterion
// is monotone in d (larger distance can only help), so accept at the lower
// bound means every leaf accepts, and reject at the upper bound means every
// leaf opens.  Anything in between stays open and is re-tested by the child
// sinks; at the sink leaf the remaining frontier is resolved with the legacy
// test, bit for bit.  A small relative slack widens the undecided band so
// floating-point rounding in the bounds can never flip a decision a leaf
// would make differently — the equivalence suite pins the result to the
// legacy path with exact comparisons.
//
// Work lists and the per-group interaction lists are stored as
// structure-of-arrays index/offset slices (no []*tree.Cell), and are applied
// through batched kernels: multipole.EvaluateTruncatedBlock evaluates each
// accepted cell against the whole sink block while its moments stay hot,
// p2pAccumulate fuses the force and potential factors into one pass (pairs
// beyond the kernel's support take the Newtonian factors inline, Plummer is
// inlined), and cube.BackgroundGroup evaluates each distinct corner of the
// group's background boxes once per sink.  All buffers are pooled per worker
// on the Walker.

import (
	"math"
	"sort"

	"twohot/internal/cube"
	"twohot/internal/domain"
	"twohot/internal/multipole"
	"twohot/internal/par"
	"twohot/internal/softening"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// TraversalStats reports how a traversal built its interaction lists.  These
// are list-construction metrics (the quantities the ROADMAP item "list reuse
// across sibling groups" is about), not physics counters, so they live next
// to Counters rather than inside it.
type TraversalStats struct {
	Groups int64 // sink leaf groups processed
	// ReplicaWalks counts, summed over groups, the replica offsets that still
	// had at least one open work-list entry when the group resolved its list
	// — the offsets whose (shifted) tree the group actually had to descend.
	// The legacy traversal descends the root for every group and offset, so
	// its value is Groups * replicas; offsets decided high in the sink tree
	// never reach a leaf and drop out of this count.
	ReplicaWalks int64
	// FrontierWalks counts the open work-list entries that sink leaves
	// resolved with the exact per-group walk (the frontier is fragmented, so
	// one surviving replica offset usually contributes several shallow
	// entries).
	FrontierWalks int64
	// InheritedItems counts decided work-list entries that sink leaves
	// consumed without any acceptance test.
	InheritedItems int64
	// ShardImbalance is the max/mean predicted shard weight of the
	// work-weighted schedule (1.0 is perfect); 0 when there was no SinkWork
	// to predict from (the shards then split particle counts) or a single
	// worker ran.
	ShardImbalance float64
	// BoundsReusedCells counts the cells whose sink-distance bounds were
	// transplanted from the previous tree's bounds via the clean-subtree
	// cache instead of being recomputed.
	BoundsReusedCells int64
	// PrunedInactive counts the sink subtrees the activity mask pruned from
	// the descent (SinkActive); 0 for full solves.
	PrunedInactive int64
}

func (s *TraversalStats) add(o TraversalStats) {
	s.Groups += o.Groups
	s.ReplicaWalks += o.ReplicaWalks
	s.FrontierWalks += o.FrontierWalks
	s.InheritedItems += o.InheritedItems
	s.PrunedInactive += o.PrunedInactive
}

// Work-list item kinds.
const (
	itOpen uint8 = iota // undecided: re-tested by descendant sinks
	itCell              // decided far cell (multipole interaction)
	itSrc               // decided near leaf: direct particle sources
	itBg                // decided background box (empty octant, or own box when oct < 0)
)

// worklist is the SoA refinement list carried down the sink tree.  Entries
// appear in the exact order the legacy depth-first walk would emit them, so
// resolving a list at a sink leaf reproduces the legacy interaction lists
// element for element.
type worklist struct {
	kind []uint8
	cell []int32 // tree cell index (for itBg with oct >= 0: the parent cell)
	off  []int32 // replica offset index into Walker.offsets
	oct  []int8  // empty octant for itBg; -1 otherwise
}

func (wl *worklist) reset() {
	wl.kind = wl.kind[:0]
	wl.cell = wl.cell[:0]
	wl.off = wl.off[:0]
	wl.oct = wl.oct[:0]
}

func (wl *worklist) push(kind uint8, cell, off int32, oct int8) {
	wl.kind = append(wl.kind, kind)
	wl.cell = append(wl.cell, cell)
	wl.off = append(wl.off, off)
	wl.oct = append(wl.oct, oct)
}

func (wl *worklist) copyFrom(o *worklist) {
	wl.kind = append(wl.kind[:0], o.kind...)
	wl.cell = append(wl.cell[:0], o.cell...)
	wl.off = append(wl.off[:0], o.off...)
	wl.oct = append(wl.oct[:0], o.oct...)
}

// applyLists is the fully resolved interaction list of one sink group, in
// batched SoA form: far cells as (cell index, offset index) pairs, direct
// sources as packed coordinate/mass arrays with the replica offset already
// applied, and background boxes with their offsets.
type applyLists struct {
	cells   []int32
	cellOff []int32

	srcX, srcY, srcZ, srcM []float64

	bgBoxes []vec.Box
	bgOff   []int32
}

func (al *applyLists) reset() {
	al.cells = al.cells[:0]
	al.cellOff = al.cellOff[:0]
	al.srcX = al.srcX[:0]
	al.srcY = al.srcY[:0]
	al.srcZ = al.srcZ[:0]
	al.srcM = al.srcM[:0]
	al.bgBoxes = al.bgBoxes[:0]
	al.bgOff = al.bgOff[:0]
}

func (al *applyLists) pushCell(cell, off int32) {
	al.cells = append(al.cells, cell)
	al.cellOff = append(al.cellOff, off)
}

func (al *applyLists) pushBg(b vec.Box, off int32) {
	al.bgBoxes = append(al.bgBoxes, b)
	al.bgOff = append(al.bgOff, off)
}

// sinkBounds caches, per tree cell, the sink-distance interval radii R and U
// described in the file comment, and the number of local sink leaves below
// each cell (zero marks subtrees with nothing to descend into: remote
// branches of a distributed tree).
type sinkBounds struct {
	r, u   []float64
	leaves []int32
}

// boundSlack is the relative widening of the undecided band.  It must cover
// the floating-point rounding of the bound recursion (a few ulps per tree
// level) while staying far below any physically meaningful scale; rounding
// noise sits ~1e-16 relative, the MAC varies over ~1e-11 across the band, so
// decisions inside the slack are identical at both ends.
const boundSlack = 1e-12

// buildSinkBounds fills sb for every cell reachable from the root without
// crossing a remote cell.  Leaves use the exact body radius (the same
// sinkRadius the legacy path uses for its groups); interior cells combine
// children through the triangle inequality, which only ever over-estimates —
// safe for both decision directions.
//
// Subtrees the dirty-set rebuild copied verbatim from the previous tree
// (tree.Tree.Reuse) copy their bounds from the previous call's arrays
// instead of recursing: r, u and the leaf counts are pure functions of a
// cell's particle content and subtree structure, both of which the copy
// preserved bit for bit, so the transplanted values equal a recomputation
// exactly.  The cache is only consulted when the walker's retired bounds
// were computed for the very tree the Reuse segments refer to.
func (w *Walker) buildSinkBounds(sb *sinkBounds) {
	t := w.Tree
	n := len(t.Cell)
	tree.GrowSlice(&sb.r, n)
	tree.GrowSlice(&sb.u, n)
	tree.GrowSlice(&sb.leaves, n)
	var segs []tree.ReusedSubtree
	var prev *sinkBounds
	if src := t.ReuseSource(); src != nil && src == w.sbPrevFor &&
		len(w.sbPrev.r) == len(src.Cell) {
		segs = t.Reuse
		prev = &w.sbPrev
	}
	reused := int64(0)
	var rec func(idx int32)
	rec = func(idx int32) {
		if prev != nil {
			// Reuse segments are emitted in ascending Root order; a subtree
			// root is matched by binary search.
			si := sort.Search(len(segs), func(i int) bool { return segs[i].Root >= idx })
			if si < len(segs) && segs[si].Root == idx &&
				int(segs[si].PrevRoot+segs[si].NumCells) <= len(prev.r) {
				seg := segs[si]
				copy(sb.r[seg.Root:seg.Root+seg.NumCells], prev.r[seg.PrevRoot:seg.PrevRoot+seg.NumCells])
				copy(sb.u[seg.Root:seg.Root+seg.NumCells], prev.u[seg.PrevRoot:seg.PrevRoot+seg.NumCells])
				copy(sb.leaves[seg.Root:seg.Root+seg.NumCells], prev.leaves[seg.PrevRoot:seg.PrevRoot+seg.NumCells])
				reused += int64(seg.NumCells)
				return
			}
		}
		c := t.Cell[idx]
		if c.Remote {
			sb.leaves[idx] = 0
			return
		}
		if c.Leaf {
			r := sinkRadius(t, c)
			sb.r[idx] = r
			sb.u[idx] = -r
			sb.leaves[idx] = 1
			return
		}
		var rMax, uMax float64
		var nl int32
		first := true
		for oct := 0; oct < 8; oct++ {
			ci := c.ChildIdx[oct]
			if ci == tree.NoChild {
				continue
			}
			rec(ci)
			if sb.leaves[ci] == 0 {
				continue
			}
			child := t.Cell[ci]
			dc := child.Center.Dist(c.Center)
			if r := dc + sb.r[ci]; first || r > rMax {
				rMax = r
			}
			if u := dc + sb.u[ci]; first || u > uMax {
				uMax = u
			}
			first = false
			nl += sb.leaves[ci]
		}
		sb.r[idx] = rMax
		sb.u[idx] = uMax
		sb.leaves[idx] = nl
	}
	rec(t.RootIdx)
	w.boundsReusedLatest = reused
	w.sbFor = t
}

// inheritWS is one worker's pooled traversal state.
type inheritWS struct {
	levels []worklist // refinement lists indexed by sink depth
	apply  applyLists

	scratch []float64
	xRel    []vec.V3
	qs      []uint8
	res     []multipole.Result
	accBuf  []vec.V3
	potBuf  []float64
	bg      cube.BackgroundGroup

	counters Counters
	stats    TraversalStats
}

func (ws *inheritWS) level(depth int) *worklist {
	for len(ws.levels) <= depth {
		ws.levels = append(ws.levels, worklist{})
	}
	return &ws.levels[depth]
}

func (ws *inheritWS) ensureGroup(m, scratchLen int) {
	if cap(ws.xRel) < m {
		ws.xRel = make([]vec.V3, m)
		ws.qs = make([]uint8, m)
		ws.res = make([]multipole.Result, m)
		ws.accBuf = make([]vec.V3, m)
		ws.potBuf = make([]float64, m)
	}
	if len(ws.scratch) < scratchLen {
		ws.scratch = make([]float64, scratchLen)
	}
}

func (w *Walker) workspace(i int) *inheritWS {
	for len(w.pool) <= i {
		w.pool = append(w.pool, &inheritWS{})
	}
	return w.pool[i]
}

// inheritTask is one subtree of the sink descent handed to a worker, with an
// owned snapshot of the work list inherited from the sequential prefix.
type inheritTask struct {
	sink  int32
	depth int
	wl    worklist
}

// ForcesForAll computes the acceleration and kernel sum for every particle in
// the tree with the list-inheriting traversal, using nWorkers goroutines over
// sink subtrees.  The returned slices are indexed like the tree's
// (key-sorted) particle arrays.  The result — accelerations, potentials and
// interaction counters — is bit-identical to forcesForAllLegacy for every
// worker count.
//
// Trees with unresolved remote cells mutate while they are traversed (child
// fetches append to the cell table), so — exactly like the legacy path — they
// must be traversed with nWorkers = 1.
func (w *Walker) ForcesForAll(nWorkers int) ([]vec.V3, []float64, Counters) {
	w.checkSplitConfig()
	t := w.Tree
	n := len(t.Pos)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	nWorkers = par.Workers(nWorkers)

	if w.SinkActive != nil && len(w.SinkActive) != n {
		panic("traverse: SinkActive length does not match the tree's particle count")
	}
	w.buildSinkBounds(&w.sb)
	root := t.RootIdx

	if w.SinkActive != nil && w.prepareActivity() == 0 {
		// Nothing active: no group runs, every slot stays zero.
		w.LastStats = TraversalStats{BoundsReusedCells: w.boundsReusedLatest}
		return acc, pot, Counters{}
	}

	// The initial work list: every replica offset starts as one open entry
	// for the (shifted) root.  Offsets decided during the descent are exactly
	// the root walks the legacy path repeats per group.
	init := &w.initWL
	init.reset()
	for oi := range w.offsets {
		init.push(itOpen, root, int32(oi), -1)
	}

	var total Counters
	var stats TraversalStats
	if nWorkers == 1 || w.sb.leaves[root] <= 1 {
		ws := w.workspace(0)
		ws.counters = Counters{}
		ws.stats = TraversalStats{}
		w.descend(root, 0, init, ws, acc, pot)
		total = ws.counters
		stats = ws.stats
	} else {
		tasks := w.collectTasks(init, nWorkers, &stats)
		// Schedule: the tasks are cut into contiguous per-worker shards of
		// near-equal predicted weight (the work-feedback rebalance), one
		// goroutine each.  Every task runs exactly once and writes a
		// disjoint particle range, so where the cuts fall changes no bit.
		cuts := append(append([]int{0}, w.shardBounds(tasks, nWorkers, &stats)...), len(tasks))
		for wk := 0; wk < nWorkers; wk++ {
			ws := w.workspace(wk)
			ws.counters = Counters{}
			ws.stats = TraversalStats{}
		}
		par.For(nWorkers, nWorkers, func(lo, hi int) {
			for wk := lo; wk < hi; wk++ {
				for ti := cuts[wk]; ti < cuts[wk+1]; ti++ {
					tk := &tasks[ti]
					w.descend(tk.sink, tk.depth, &tk.wl, w.pool[wk], acc, pot)
				}
			}
		})
		for wk := 0; wk < nWorkers; wk++ {
			total.Add(w.pool[wk].counters)
			stats.add(w.pool[wk].stats)
		}
	}

	w.postProcess(acc, pot, nWorkers)
	stats.BoundsReusedCells = w.boundsReusedLatest
	w.LastStats = stats
	return acc, pot, total
}

// shardBounds computes the work-weighted task partition: each task is
// weighted by the summed SinkWork of the particles under its sink subtree
// (one unit per particle when SinkWork is missing, as the uniform weights a
// fresh particle.Set carries) and the task sequence (which is in sink-tree
// DFS order, i.e. contiguous in the sorted particle arrays) is split into
// nWorkers contiguous shards of near-equal weight.
func (w *Walker) shardBounds(tasks []inheritTask, nWorkers int, stats *TraversalStats) []int {
	work := w.SinkWork
	weighted := len(work) == len(w.Tree.Pos)
	if !weighted {
		work = nil
	}
	if w.SinkActive != nil {
		// Partially-active solve: particles of pruned groups cost nothing,
		// so their carried work must not attract shard boundaries.  The
		// mask is per group, not per particle — a processed group applies
		// its lists to all of its members.
		work = domain.MaskWeights(w.maskedWork, work, w.groupActiveMask())
		w.maskedWork = work
	}
	weights := make([]float64, len(tasks))
	for i := range tasks {
		c := w.Tree.Cell[tasks[i].sink]
		if work == nil {
			weights[i] = float64(c.NBodies)
			continue
		}
		sum := 0.0
		for p := c.First; p < c.First+c.NBodies; p++ {
			sum += work[p]
		}
		weights[i] = sum
	}
	bounds := domain.SplitWeighted(weights, nWorkers)
	if weighted {
		stats.ShardImbalance = domain.ShardImbalance(weights, bounds)
	}
	return bounds
}

// collectTasks runs the top of the sink descent sequentially, refining the
// work list level by level, and cuts the descent into independent subtree
// tasks once a subtree holds few enough sink leaves.  Refinement is a pure
// function of (sink cell, inherited list), so where the cut falls cannot
// change any result — only which goroutine computes it.  Sink subtrees the
// activity mask prunes never become tasks and never pay for a refinement.
func (w *Walker) collectTasks(init *worklist, nWorkers int, stats *TraversalStats) []inheritTask {
	t := w.Tree
	grain := w.sb.leaves[t.RootIdx] / int32(nWorkers*8)
	if grain < 1 {
		grain = 1
	}
	w.tasks = w.tasks[:0]
	ws := w.workspace(0)
	var rec func(sIdx int32, depth int, parent *worklist)
	rec = func(sIdx int32, depth int, parent *worklist) {
		c := t.Cell[sIdx]
		if c.Leaf || w.sb.leaves[sIdx] <= grain {
			if len(w.tasks) < cap(w.tasks) {
				w.tasks = w.tasks[:len(w.tasks)+1]
			} else {
				w.tasks = append(w.tasks, inheritTask{})
			}
			tk := &w.tasks[len(w.tasks)-1]
			tk.sink = sIdx
			tk.depth = depth
			tk.wl.copyFrom(parent)
			return
		}
		cur := ws.level(depth)
		cur.reset()
		w.refineInto(sIdx, parent, cur)
		for oct := 0; oct < 8; oct++ {
			if ci := c.ChildIdx[oct]; ci != tree.NoChild && w.sb.leaves[ci] > 0 {
				if !w.subtreeActive(ci) {
					stats.PrunedInactive++
					continue
				}
				rec(ci, depth+1, cur)
			}
		}
	}
	rec(t.RootIdx, 0, init)
	return w.tasks
}

// descend refines the inherited work list for one sink cell and recurses; at
// sink leaves it resolves the remaining frontier exactly and applies the
// interaction lists to the group's particles.
func (w *Walker) descend(sIdx int32, depth int, parent *worklist, ws *inheritWS, acc []vec.V3, pot []float64) {
	t := w.Tree
	c := t.Cell[sIdx]
	if c.Leaf {
		w.resolveAndApply(sIdx, parent, ws, acc, pot)
		return
	}
	cur := ws.level(depth)
	cur.reset()
	w.refineInto(sIdx, parent, cur)
	for oct := 0; oct < 8; oct++ {
		if ci := c.ChildIdx[oct]; ci != tree.NoChild && w.sb.leaves[ci] > 0 {
			if !w.subtreeActive(ci) {
				ws.stats.PrunedInactive++
				continue
			}
			w.descend(ci, depth+1, cur, ws, acc, pot)
		}
	}
}

// refineInto rebuilds the work list for sink cell sIdx from its parent's
// list: decided entries are copied through, open entries are re-tested
// against the tighter sink bounds.  Work lists are offset-sorted by
// construction — the initial list is one entry per replica offset and
// classification expands an entry only into entries of the same offset — so
// the open frontier arrives grouped by offset and the replica shift is
// resolved once per run instead of once per interval test.
func (w *Walker) refineInto(sIdx int32, parent, out *worklist) {
	sc := w.Tree.Cell[sIdx].Center
	r := w.sb.r[sIdx]
	u := w.sb.u[sIdx]
	n := len(parent.kind)
	lastOff := int32(-1)
	var off vec.V3
	for i := 0; i < n; i++ {
		if parent.kind[i] != itOpen {
			out.push(parent.kind[i], parent.cell[i], parent.off[i], parent.oct[i])
			continue
		}
		if parent.off[i] != lastOff {
			lastOff = parent.off[i]
			off = w.offsets[lastOff]
		}
		w.classify(parent.cell[i], parent.off[i], off, sc, r, u, out)
	}
}

// classify decides one source cell against a sink cell's distance interval:
// accepted for every descendant leaf, opened for every descendant leaf (the
// children are then classified recursively, in the legacy walk's emission
// order), or left open for the child sinks.  off is the resolved replica
// shift w.offsets[oi], hoisted by the caller across the offset-sorted run.
func (w *Walker) classify(ci, oi int32, off, sc vec.V3, r, u float64, out *worklist) {
	t := w.Tree
	c := t.Cell[ci]
	dc := c.Center.Add(off).Dist(sc)
	slack := boundSlack * (dc + r + c.Size)
	if w.Cfg.SplitRS > 0 {
		// Short-range mode: a sink leaf prunes this cell when its effective
		// distance d exceeds SplitRCut + Bmax (see gather).  d lies in
		// [dc-r, dc+u] for every descendant leaf, so beyond the interval's
		// lower bound every leaf prunes — drop the entry; beyond only the
		// upper bound some leaf might — defer so the leaves re-test exactly.
		prune := w.Cfg.SplitRCut + c.Exp.Bmax
		if dc-r-slack > prune {
			return
		}
		if dc+u+slack > prune {
			out.push(itOpen, ci, oi, -1)
			return
		}
	}
	if w.accept(c, dc-r-slack) {
		out.push(itCell, ci, oi, -1)
		return
	}
	if w.accept(c, dc+u+slack) {
		// Some descendant may accept while another opens: defer.
		out.push(itOpen, ci, oi, -1)
		return
	}
	// Every descendant opens this cell.
	if c.Leaf {
		out.push(itSrc, ci, oi, -1)
		if t.RhoBar() > 0 {
			out.push(itBg, ci, oi, -1)
		}
		return
	}
	for oct := 0; oct < 8; oct++ {
		child := t.Child(c, oct)
		if child != nil {
			w.classify(c.ChildIdx[oct], oi, off, sc, r, u, out)
			continue
		}
		if t.RhoBar() > 0 {
			out.push(itBg, ci, oi, int8(oct))
		}
	}
}

// resolveAndApply turns the inherited work list into the sink group's
// interaction lists — decided entries translate directly, open entries replay
// the legacy walk with the exact per-group test — and applies them to every
// particle of the group.
func (w *Walker) resolveAndApply(sIdx int32, parent *worklist, ws *inheritWS, acc []vec.V3, pot []float64) {
	t := w.Tree
	c := t.Cell[sIdx]
	g := sinkGroup{center: c.Center, radius: w.sb.r[sIdx], first: c.First, count: c.NBodies}
	al := &ws.apply
	al.reset()
	n := len(parent.kind)
	lastOpenOff := int32(-1)
	for i := 0; i < n; i++ {
		switch parent.kind[i] {
		case itCell:
			al.pushCell(parent.cell[i], parent.off[i])
			ws.stats.InheritedItems++
		case itSrc:
			w.pushLeafSources(al, parent.cell[i], parent.off[i])
			ws.stats.InheritedItems++
		case itBg:
			al.pushBg(w.bgBoxFor(parent.cell[i], parent.oct[i]), parent.off[i])
			ws.stats.InheritedItems++
		default: // itOpen
			w.exactGather(parent.cell[i], parent.off[i], g, al)
			ws.stats.FrontierWalks++
			// Entries of one offset stay contiguous through refinement, so a
			// change of offset marks a replica this group really descends.
			if parent.off[i] != lastOpenOff {
				ws.stats.ReplicaWalks++
				lastOpenOff = parent.off[i]
			}
		}
	}
	ws.stats.Groups++
	w.applyGroup(g, al, ws, acc, pot)
}

func (w *Walker) bgBoxFor(ci int32, oct int8) vec.Box {
	c := w.Tree.Cell[ci]
	if oct < 0 {
		return c.Box()
	}
	return octantBox(c, int(oct))
}

func (w *Walker) pushLeafSources(al *applyLists, ci, oi int32) {
	pos, mass := w.Tree.LeafParticles(w.Tree.Cell[ci])
	off := w.offsets[oi]
	for i := range pos {
		p := pos[i].Add(off)
		al.srcX = append(al.srcX, p[0])
		al.srcY = append(al.srcY, p[1])
		al.srcZ = append(al.srcZ, p[2])
		al.srcM = append(al.srcM, mass[i])
	}
}

// exactGather resolves one still-open frontier cell for a sink leaf with the
// legacy acceptance test (identical expressions, so identical decisions),
// emitting into the SoA apply lists in the legacy walk's order.
func (w *Walker) exactGather(ci, oi int32, g sinkGroup, al *applyLists) {
	t := w.Tree
	c := t.Cell[ci]
	off := w.offsets[oi]
	srcCenter := c.Center.Add(off)
	dCenter := srcCenter.Dist(g.center)
	d := dCenter - g.radius

	// Short-range mode: same exact pruning test as the legacy gather.
	if w.Cfg.SplitRS > 0 && d > w.Cfg.SplitRCut+c.Exp.Bmax {
		return
	}

	if w.accept(c, d) {
		al.pushCell(ci, oi)
		return
	}
	if c.Leaf {
		w.pushLeafSources(al, ci, oi)
		if t.RhoBar() > 0 {
			al.pushBg(c.Box(), oi)
		}
		return
	}
	for oct := 0; oct < 8; oct++ {
		child := t.Child(c, oct)
		if child != nil {
			w.exactGather(c.ChildIdx[oct], oi, g, al)
			continue
		}
		if t.RhoBar() > 0 {
			al.pushBg(octantBox(c, oct), oi)
		}
	}
}

// applyGroup applies the resolved SoA lists to every sink particle of the
// group.  Far cells run source-major through the block evaluator so each
// cell's moments are streamed once per group; direct sources run through the
// fused particle-particle kernel, background boxes through the group's shared
// corners.  Per-sink accumulation order is cells, then sources, then
// background boxes, each in list order — the exact order of the legacy
// application, so the floating-point sums agree bit for bit.
func (w *Walker) applyGroup(g sinkGroup, al *applyLists, ws *inheritWS, acc []vec.V3, pot []float64) {
	t := w.Tree
	ws.counters.SinkCells++
	ws.counters.Sinks += int64(g.count)
	m := g.count
	if w.WorkOut != nil {
		// Every sink of the group consumes the same lists, so its work is
		// the group's list length: far cells + direct sources + background
		// cubes (summed over sinks this reproduces the step's counters).
		gw := float64(len(al.cells)) + float64(len(al.srcX)) + float64(len(al.bgBoxes))
		for s := 0; s < m; s++ {
			w.WorkOut[g.first+s] = gw
		}
	}
	ws.ensureGroup(m, multipole.ScratchSize(t.Opt.Order))
	accB := ws.accBuf[:m]
	potB := ws.potBuf[:m]
	for s := 0; s < m; s++ {
		accB[s] = vec.V3{}
		potB[s] = 0
	}
	split := softening.NewSplit(w.Cfg.SplitRS)

	for ci := range al.cells {
		c := t.Cell[al.cells[ci]]
		off := w.offsets[al.cellOff[ci]]
		e := c.Exp
		for s := 0; s < m; s++ {
			xRel := t.Pos[g.first+s].Sub(off)
			ws.xRel[s] = xRel
			q := w.chooseOrder(c, xRel.Dist(e.Center))
			ws.qs[s] = uint8(q)
			ws.counters.CellByOrder[q]++
		}
		e.EvaluateTruncatedBlock(ws.xRel[:m], ws.qs[:m], ws.scratch, ws.res[:m])
		if w.Cfg.SplitRS > 0 {
			// Scalar split damping at the cell-center distance, with the same
			// expressions as the legacy applyList so the two paths agree bit
			// for bit.
			for s := 0; s < m; s++ {
				sff, spf := split.Factors(ws.xRel[s].Dist(e.Center))
				accB[s] = accB[s].Add(ws.res[s].Acc.Scale(sff))
				potB[s] += ws.res[s].Phi * spf
			}
		} else {
			for s := 0; s < m; s++ {
				accB[s] = accB[s].Add(ws.res[s].Acc)
				potB[s] += ws.res[s].Phi
			}
		}
	}

	nSrc := int64(len(al.srcX))
	rhoBar := t.RhoBar()
	ws.bg.Index(al.bgBoxes, al.bgOff)
	for s := 0; s < m; s++ {
		i := g.first + s
		x := t.Pos[i]
		var a vec.V3
		var p float64
		if w.Cfg.SplitRS > 0 {
			a, p = p2pAccumulateSplit(w.Cfg.Kernel, w.Cfg.Eps, split, w.Cfg.SplitRCut, x, al, accB[s], potB[s])
		} else {
			a, p = p2pAccumulate(w.Cfg.Kernel, w.Cfg.Eps, x, al, accB[s], potB[s])
		}
		ws.counters.P2P += nSrc
		ws.bg.Eval(x, w.offsets)
		for bi := range al.bgBoxes {
			ba, bp := ws.bg.Box(bi, rhoBar)
			a = a.Add(ba)
			p += bp
			ws.counters.BgCubes++
		}
		acc[i] = acc[i].Add(a)
		pot[i] += p
	}
}

// p2pAccumulate adds every direct source of the list to one sink,
// accumulating onto (a, p).  The force and potential factors are fused into a
// single pass over each pair: pairs at or beyond the kernel support
// (softening.Support — every pair without smoothing, nearly every pair of a
// cosmological run) take the Newtonian factors inline, Plummer is inlined
// (it shares the square root between both factors), and the pairs inside a
// compact kernel's support go through softening.Factors.  All arithmetic
// reproduces the legacy per-pair expressions exactly.
func p2pAccumulate(kernel softening.Kernel, eps float64, x vec.V3, al *applyLists, a vec.V3, p float64) (vec.V3, float64) {
	sx, sy, sz, sm := al.srcX, al.srcY, al.srcZ, al.srcM
	x0, x1, x2 := x[0], x[1], x[2]
	if kernel == softening.Plummer {
		e2 := eps * eps
		for j := range sx {
			dx := sx[j] - x0
			dy := sy[j] - x1
			dz := sz[j] - x2
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			d2 := r*r + e2
			sq := math.Sqrt(d2)
			var ff float64
			if d2 != 0 {
				ff = 1 / (d2 * sq)
			}
			pf := 1 / sq
			mj := sm[j]
			s := mj * ff
			a[0] += dx * s
			a[1] += dy * s
			a[2] += dz * s
			p += mj * pf
		}
		return a, p
	}
	support := softening.Support(kernel, eps)
	for j := range sx {
		dx := sx[j] - x0
		dy := sy[j] - x1
		dz := sz[j] - x2
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		ff, pf := 1/(r*r*r), 1/r
		if r < support {
			ff, pf = softening.Factors(kernel, r, eps)
		}
		mj := sm[j]
		s := mj * ff
		a[0] += dx * s
		a[1] += dy * s
		a[2] += dz * s
		p += mj * pf
	}
	return a, p
}

// p2pAccumulateSplit is p2pAccumulate in TreePM short-range mode: pairs beyond
// rcut are dropped and every surviving pair is damped by the tabulated
// erfc-complement split factors, inlined, so a pair beyond the kernel support
// costs a square root, two divisions and two cubic polynomials.  The kernel
// factors and the factor-multiplication order reproduce the legacy applyList
// expressions exactly, so the two paths stay bit-identical in split mode too.
func p2pAccumulateSplit(kernel softening.Kernel, eps float64, split softening.Split, rcut float64, x vec.V3, al *applyLists, a vec.V3, p float64) (vec.V3, float64) {
	sx, sy, sz, sm := al.srcX, al.srcY, al.srcZ, al.srcM
	x0, x1, x2 := x[0], x[1], x[2]
	rcut2 := rcut * rcut
	support := softening.Support(kernel, eps)
	for j := range sx {
		dx := sx[j] - x0
		dy := sy[j] - x1
		dz := sz[j] - x2
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 || r2 > rcut2 {
			continue
		}
		r := math.Sqrt(r2)
		ff, pf := 1/(r*r*r), 1/r
		if r < support {
			ff, pf = softening.Factors(kernel, r, eps)
		}
		sff, spf := split.Factors(r)
		ff *= sff
		pf *= spf
		mj := sm[j]
		s := mj * ff
		a[0] += dx * s
		a[1] += dy * s
		a[2] += dz * s
		p += mj * pf
	}
	return a, p
}
