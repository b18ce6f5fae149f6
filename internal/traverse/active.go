package traverse

// Activity-restricted traversal support (Walker.SinkActive).
//
// A block-timestep substep only needs forces for the particles on its active
// rungs.  Because every sink group's interaction list is built independently
// of all other groups, a subset solve that simply skips the sink subtrees
// without active particles returns, for every ACTIVE particle, exactly the
// bits a full solve would have produced — no re-derivation, no tolerance.
// (Inactive slots are unspecified even inside processed groups: they skip
// the far-lattice/G post-pass.)  This file holds the bookkeeping that makes the skip cheap: a
// prefix-sum over the active flags in sorted particle order decides in O(1)
// whether any cell's particle range holds an active sink, and the per-group
// activity mask feeds the work-weighted shard split so the static schedule
// balances only the work the substep will actually do.

import "twohot/internal/tree"

// prepareActivity builds the prefix-sum over SinkActive (sorted order) and
// returns the total number of active particles.  Must be called after the
// walker's tree is current.
func (w *Walker) prepareActivity() int {
	n := len(w.Tree.Pos)
	tree.GrowSlice(&w.activePrefix, n+1)
	w.activePrefix[0] = 0
	for i, a := range w.SinkActive {
		v := w.activePrefix[i]
		if a {
			v++
		}
		w.activePrefix[i+1] = v
	}
	return int(w.activePrefix[n])
}

// subtreeActive reports whether the cell's particle range contains at least
// one active sink (always true for full solves).  The shared upper cells of a
// distributed tree (Owner < 0) span several ranks: their NBodies counts every
// rank's bodies and they have no local particle range, so they are never
// pruned here — the descent reaches the local branch cells below them, whose
// ranges are exact.
func (w *Walker) subtreeActive(idx int32) bool {
	if w.SinkActive == nil {
		return true
	}
	c := w.Tree.Cell[idx]
	return c.Owner < 0 || w.cellActive(c)
}

// cellActive is subtreeActive for a cell already in hand; the caller must
// have checked that an activity mask is present.
func (w *Walker) cellActive(c *tree.Cell) bool {
	return w.activePrefix[c.First+c.NBodies] > w.activePrefix[c.First]
}

// groupActiveMask fills the pooled per-particle mask that marks every
// particle belonging to a sink group with at least one active particle.
// Those are the particles a subset solve actually pays for — a processed
// group applies its lists to all of its members — so they, and only they,
// should contribute weight to the static shard split.
func (w *Walker) groupActiveMask() []bool {
	t := w.Tree
	n := len(t.Pos)
	mask := tree.GrowSlice(&w.groupMask, n)
	for i := range mask {
		mask[i] = false
	}
	for _, c := range t.Cell {
		if !c.Leaf || c.Remote || !w.cellActive(c) {
			continue
		}
		for p := c.First; p < c.First+c.NBodies; p++ {
			mask[p] = true
		}
	}
	return mask
}
