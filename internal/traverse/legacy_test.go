package traverse

// The original per-group traversal, kept as the reference oracle for the
// list-inheriting path: every sink leaf cell walks the tree from the root
// once per replica offset.  The equivalence suite (equiv_test.go) proves
// ForcesForAll reproduces it bit for bit; no production code reaches it.

import (
	"math"
	"runtime"
	"sync"

	"twohot/internal/cube"
	"twohot/internal/multipole"
	"twohot/internal/softening"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// interactionList is the per-sink-cell gathering of work.
type interactionList struct {
	cells     []*tree.Cell
	cellOff   []vec.V3
	srcPos    []vec.V3
	srcMass   []float64
	bgBoxes   []vec.Box
	bgOffsets []vec.V3
}

func (il *interactionList) reset() {
	il.cells = il.cells[:0]
	il.cellOff = il.cellOff[:0]
	il.srcPos = il.srcPos[:0]
	il.srcMass = il.srcMass[:0]
	il.bgBoxes = il.bgBoxes[:0]
	il.bgOffsets = il.bgOffsets[:0]
}

// forcesForAllLegacy computes forces with the original per-group traversal:
// every sink leaf cell walks the tree from the root once per replica offset.
// It survives only as the reference oracle for the list-inheriting path
// (ForcesForAll) — the equivalence suite proves the two are bit-identical —
// and as the baseline of the in-package traversal benchmark; production
// callers were retired after the PR 2 bake-in and the symbol is deliberately
// unexported.  SinkActive is ignored.  The returned slices are indexed like
// the tree's (key-sorted) particle arrays.
func (w *Walker) forcesForAllLegacy(nWorkers int) ([]vec.V3, []float64, Counters) {
	w.checkSplitConfig()
	t := w.Tree
	n := len(t.Pos)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	leaves := t.Leaves()
	groups := make([]sinkGroup, 0, len(leaves))
	for _, li := range leaves {
		c := t.Cell[li]
		groups = append(groups, sinkGroup{
			center: c.Center,
			radius: sinkRadius(t, c),
			first:  c.First,
			count:  c.NBodies,
		})
	}

	var total Counters
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int, len(groups))
	for i := range groups {
		next <- i
	}
	close(next)

	for wk := 0; wk < nWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var il interactionList
			scratch := make([]float64, multipole.ScratchSize(t.Opt.Order))
			var local Counters
			for gi := range next {
				g := groups[gi]
				w.forcesForGroup(g, &il, scratch, acc, pot, &local)
			}
			mu.Lock()
			total.Add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()

	w.postProcess(acc, pot, nWorkers)
	walks := int64(len(groups)) * int64(len(w.offsets))
	w.LastStats = TraversalStats{
		Groups:        int64(len(groups)),
		ReplicaWalks:  walks,
		FrontierWalks: walks,
	}
	return acc, pot, total
}

// forcesForGroup gathers the interaction list for one sink group and applies
// it to every sink particle in the group (the m x n blocking: the list
// construction cost is shared by all sinks of the group).
func (w *Walker) forcesForGroup(g sinkGroup, il *interactionList, scratch []float64,
	acc []vec.V3, pot []float64, counters *Counters) {
	t := w.Tree
	counters.SinkCells++
	counters.Sinks += int64(g.count)

	il.reset()
	for _, off := range w.offsets {
		w.gather(t.Root(), off, g, il)
	}

	if w.WorkOut != nil {
		gw := float64(len(il.cells)) + float64(len(il.srcPos)) + float64(len(il.bgBoxes))
		for i := g.first; i < g.first+g.count; i++ {
			w.WorkOut[i] = gw
		}
	}
	for i := g.first; i < g.first+g.count; i++ {
		a, p := w.applyList(t.Pos[i], il, scratch, counters)
		acc[i] = acc[i].Add(a)
		pot[i] += p
	}
}

// applyList applies a gathered interaction list to one sink position: the
// cell interactions (adaptively choosing the evaluation order), the direct
// particle-particle interactions, and the analytic near-field background
// cubes.  It is shared by forcesForGroup and ForceAt so the three application
// loops exist exactly once.
func (w *Walker) applyList(x vec.V3, il *interactionList, scratch []float64, counters *Counters) (vec.V3, float64) {
	var a vec.V3
	var p float64
	splitRS := w.Cfg.SplitRS
	for ci, c := range il.cells {
		xRel := x.Sub(il.cellOff[ci])
		dist := xRel.Dist(c.Exp.Center)
		q := w.chooseOrder(c, dist)
		res := c.Exp.EvaluateTruncated(xRel, q, scratch)
		if splitRS > 0 {
			// Scalar split damping at the cell-center distance (the
			// GADGET-style short-range multipole approximation).
			sff, spf := softening.SplitFactors(dist, splitRS)
			res.Acc = res.Acc.Scale(sff)
			res.Phi *= spf
		}
		a = a.Add(res.Acc)
		p += res.Phi
		counters.CellByOrder[q]++
	}
	// Direct particle-particle interactions.
	rcut2 := w.Cfg.SplitRCut * w.Cfg.SplitRCut
	for j := range il.srcPos {
		d := il.srcPos[j].Sub(x)
		r2 := d.Norm2()
		if r2 == 0 {
			continue
		}
		if splitRS > 0 && r2 > rcut2 {
			continue
		}
		r := math.Sqrt(r2)
		ff := softening.ForceFactor(w.Cfg.Kernel, r, w.Cfg.Eps)
		pf := softening.PotentialFactor(w.Cfg.Kernel, r, w.Cfg.Eps)
		if splitRS > 0 {
			sff, spf := softening.SplitFactors(r, splitRS)
			ff *= sff
			pf *= spf
		}
		m := il.srcMass[j]
		a = a.Add(d.Scale(m * ff))
		p += m * pf
	}
	counters.P2P += int64(len(il.srcPos))
	// Near-field background removal (analytic cubes of density -rhobar).
	for bi := range il.bgBoxes {
		xRel := x.Sub(il.bgOffsets[bi])
		ba, bp := cube.BackgroundAccel(il.bgBoxes[bi], w.Tree.RhoBar(), xRel)
		a = a.Add(ba)
		p += bp
		counters.BgCubes++
	}
	return a, p
}

// gather walks the (possibly replica-shifted) tree and fills the interaction
// list for a sink group.  off is added to all source positions; equivalently
// the sink is evaluated at x-off against the unshifted sources.
func (w *Walker) gather(c *tree.Cell, off vec.V3, g sinkGroup, il *interactionList) {
	t := w.Tree
	srcCenter := c.Center.Add(off)
	dCenter := srcCenter.Dist(g.center)
	d := dCenter - g.radius

	// Short-range mode: the closest possible sink-body pair is at least
	// d - Bmax away, so beyond the cutoff the whole subtree contributes
	// nothing to the truncated force and is pruned.
	if w.Cfg.SplitRS > 0 && d > w.Cfg.SplitRCut+c.Exp.Bmax {
		return
	}

	if w.accept(c, d) {
		il.cells = append(il.cells, c)
		il.cellOff = append(il.cellOff, off)
		return
	}

	if c.Leaf {
		pos, mass := t.LeafParticles(c)
		for i := range pos {
			il.srcPos = append(il.srcPos, pos[i].Add(off))
			il.srcMass = append(il.srcMass, mass[i])
		}
		if t.RhoBar() > 0 {
			il.bgBoxes = append(il.bgBoxes, c.Box())
			il.bgOffsets = append(il.bgOffsets, off)
		}
		return
	}

	// Open the cell: recurse into present children and, when background
	// subtraction is active, account for the empty octants analytically.
	for oct := 0; oct < 8; oct++ {
		child := t.Child(c, oct)
		if child != nil {
			w.gather(child, off, g, il)
			continue
		}
		if t.RhoBar() > 0 {
			il.bgBoxes = append(il.bgBoxes, octantBox(c, oct))
			il.bgOffsets = append(il.bgOffsets, off)
		}
	}
}

// ForceAt evaluates the field at an arbitrary position (e.g. a test point or
// a lightcone sample), without self-exclusion.
func (w *Walker) ForceAt(x vec.V3) (vec.V3, float64) {
	w.checkSplitConfig()
	t := w.Tree
	var il interactionList
	scratch := make([]float64, multipole.ScratchSize(t.Opt.Order))
	var counters Counters
	g := sinkGroup{center: x, radius: 0, first: 0, count: 0}
	for _, off := range w.offsets {
		w.gather(t.Root(), off, g, &il)
	}
	a, p := w.applyList(x, &il, scratch, &counters)
	if w.local != nil {
		res := w.local.Evaluate(x)
		a = a.Add(res.Acc)
		p += res.Phi
	}
	return a.Scale(w.Cfg.G), p * w.Cfg.G
}
