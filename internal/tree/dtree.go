package tree

import (
	"fmt"
	"sort"

	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/par"
	"twohot/internal/vec"
)

// This file implements the distributed tree construction of Section 3.2:
// each rank owns a contiguous key range of particles, builds subtrees under
// its "branch" cells (the coarsest cells entirely inside its key range),
// exchanges branch cells with the other ranks, and assembles the shared
// upper-level cells whose moments combine contributions from every rank.
// Cells received from other ranks are Remote: when a traversal needs their
// children, Tree.FetchChildren ships them over the ABM layer.

// BranchKeys returns the minimal set of cell keys whose body-key ranges are
// entirely contained in [lo, hi) and which together cover it.  These are the
// branch cells of a rank owning the key range [lo, hi).
func BranchKeys(lo, hi uint64) []keys.Key {
	var out []keys.Key
	var walk func(k keys.Key)
	walk = func(k keys.Key) {
		klo, khi := k.BodyRange() // closed range of body keys under k
		if uint64(khi) < lo || uint64(klo) >= hi {
			return
		}
		if uint64(klo) >= lo && (uint64(khi) < hi || hi == ^uint64(0)) {
			out = append(out, k)
			return
		}
		if k.Level() >= keys.MaxDepth {
			// A single deepest-level cell straddling the range boundary is
			// assigned to the range that contains its first body key.
			if uint64(klo) >= lo && uint64(klo) < hi {
				out = append(out, k)
			}
			return
		}
		for oct := 0; oct < 8; oct++ {
			walk(k.Child(oct))
		}
	}
	walk(keys.RootKey)
	return out
}

// Distributed wraps a Tree with the bookkeeping of the distributed build:
// the particles of one rank organized into subtrees under that rank's branch
// cells, plus (after the branch exchange) the remote branch cells of every
// other rank and the shared upper tree above them.
type Distributed struct {
	*Tree
	KeyLo, KeyHi uint64
	BranchCells  []keys.Key // this rank's branch cell keys (with particles)
}

// NewDistributed builds the rank-local subtrees.  pos/mass are the rank's
// particles; they are sorted by key in place.  keyLo/keyHi delimit the rank's
// key range.  Call AddRemoteCell for every branch cell received from the
// other ranks and then BuildUpper to assemble the shared upper tree.
func NewDistributed(pos []vec.V3, mass []float64, box vec.Box, opt Options, keyLo, keyHi uint64) (*Distributed, error) {
	// The slack leaves hash room for the remote branch cells and the shared
	// upper cells added after the local build.
	t, workers, err := newTree(pos, mass, box, opt, 1024)
	if err != nil {
		return nil, err
	}

	d := &Distributed{Tree: t, KeyLo: keyLo, KeyHi: keyHi}
	for _, bk := range BranchKeys(keyLo, keyHi) {
		lo, hi := bk.BodyRange()
		first := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] >= uint64(lo) })
		last := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] > uint64(hi) })
		if last <= first {
			continue
		}
		idx := t.buildRange(bk, first, last-first, workers)
		if bk == keys.RootKey {
			t.RootIdx = idx
		}
		d.BranchCells = append(d.BranchCells, bk)
	}
	if len(d.BranchCells) == 0 {
		return nil, fmt.Errorf("tree: no branch cells contain particles")
	}
	return d, nil
}

// LocalBranches returns the rank's branch cells.
func (d *Distributed) LocalBranches() []*Cell {
	out := make([]*Cell, 0, len(d.BranchCells))
	for _, k := range d.BranchCells {
		c, ok := d.CellByKey(k)
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// AddRemoteCell inserts a cell received from another rank (branch exchange or
// prefetch).  Existing cells are not overwritten.
func (d *Distributed) AddRemoteCell(c Cell) {
	if _, ok := d.Hash.Get(c.Key); ok {
		return
	}
	cc := c
	for i := range cc.ChildIdx {
		cc.ChildIdx[i] = NoChild
	}
	idx := int32(len(d.Cell))
	d.Cell = append(d.Cell, &cc)
	d.Hash.Put(cc.Key, idx)
}

// BuildUpper creates the shared upper-level cells above the branch cells
// (local and remote) and computes their moments by shifting the branch
// moments upward (M2M).  It must be called after all branch cells have been
// inserted.  Upper cells are owned by no rank and never require fetching.
//
// The pass runs level by level from the deepest cell upward: a parallel scan
// classifies every cell of the level as linked (parent already in the table)
// or orphaned, parents for the orphans are created serially in cell-index
// order (deterministic, unlike the map-ordered serial reference), and the new
// parents' moments are computed in a parallel pass — each parent's expansion
// touches only its own storage and its (finished) children.  One cell is
// visited once per level it sits on, replacing the serial reference's
// repeated whole-table rounds, which rescanned every cell once per remaining
// orphan level.  The reference implementation (buildUpperSerial) lives beside
// the regression suite in dtree_upper_test.go, which pins the two to each
// other.
func (d *Distributed) BuildUpper() {
	workers := par.Workers(d.Opt.Workers)
	maxLevel := 0
	for _, c := range d.Cell {
		if c.Level > maxLevel {
			maxLevel = c.Level
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for i, c := range d.Cell {
		byLevel[c.Level] = append(byLevel[c.Level], int32(i))
	}
	for l := maxLevel; l >= 1; l-- {
		cells := byLevel[l]
		if len(cells) == 0 {
			continue
		}
		// Parallel scan: resolve each cell's parent in the hash table
		// (read-only; all writes happen below on the calling goroutine).
		parentIdx := make([]int32, len(cells))
		par.For(len(cells), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c := d.Cell[cells[i]]
				if pi, ok := d.Hash.Get(c.Key.Parent()); ok {
					parentIdx[i] = pi
				} else {
					parentIdx[i] = NoChild
				}
			}
		})
		// Serial: record links into existing parents and group the orphans
		// by parent key, preserving cell-index order within each group (the
		// summation order of the serial reference's moment pass).
		type orphanGroup struct {
			key      keys.Key
			children []int32
		}
		var groups []orphanGroup
		groupOf := map[keys.Key]int{}
		for i, ci := range cells {
			c := d.Cell[ci]
			if pi := parentIdx[i]; pi != NoChild {
				p := d.Cell[pi]
				oct := c.Key.Octant()
				if p.ChildIdx[oct] == NoChild {
					p.ChildIdx[oct] = ci
					p.ChildMask |= 1 << uint(oct)
				}
				continue
			}
			pk := c.Key.Parent()
			gi, ok := groupOf[pk]
			if !ok {
				gi = len(groups)
				groups = append(groups, orphanGroup{key: pk})
				groupOf[pk] = gi
			}
			groups[gi].children = append(groups[gi].children, ci)
		}
		if len(groups) == 0 {
			continue
		}
		// Serial: append the parent shells (cell array and hash mutations).
		created := make([]int32, len(groups))
		for gi := range groups {
			idx := d.createUpperShell(groups[gi].key, groups[gi].children)
			created[gi] = idx
			byLevel[l-1] = append(byLevel[l-1], idx)
		}
		// Parallel: the new parents' moments.  Children are finished — they
		// are either original cells or parents created (and summed) one
		// level deeper — and each computation writes only its own cell.
		par.For(len(groups), workers, func(lo, hi int) {
			for gi := lo; gi < hi; gi++ {
				d.upperMoments(d.Cell[created[gi]], groups[gi].children)
			}
		})
	}
}

// createUpperShell appends the metadata of a shared upper cell — child links,
// body count, hash entry — leaving the moments for upperMoments.  All cell
// array and hash mutations of BuildUpper funnel through here, on the calling
// goroutine.
func (d *Distributed) createUpperShell(key keys.Key, children []int32) int32 {
	box := key.CellBox(d.Box)
	c := Cell{
		Key:    key,
		Center: box.Center(),
		Size:   box.MaxSide(),
		Level:  key.Level(),
		Owner:  -1,
	}
	for i := range c.ChildIdx {
		c.ChildIdx[i] = NoChild
	}
	n := 0
	for _, ci := range children {
		child := d.Cell[ci]
		oct := child.Key.Octant()
		c.ChildIdx[oct] = ci
		c.ChildMask |= 1 << uint(oct)
		n += child.NBodies
	}
	c.NBodies = n
	idx := int32(len(d.Cell))
	d.Cell = append(d.Cell, &c)
	d.Hash.Put(key, idx)
	if key == keys.RootKey {
		d.RootIdx = idx
	}
	return idx
}

// upperMoments shifts the children's moments up to the shared upper cell c,
// in the given child order — the exact arithmetic sequence of the serial
// reference, so the two BuildUpper implementations agree bit for bit.  It
// reads shared tree state and finished children and writes only c.Exp, so
// concurrent calls on distinct cells are safe.
func (d *Distributed) upperMoments(c *Cell, children []int32) {
	e := multipole.NewExpansion(d.Opt.Order, c.Center)
	for _, ci := range children {
		child := d.Cell[ci]
		raw := child.Exp
		if d.bgByLevel != nil {
			raw = cloneMinusBackground(child.Exp, d.bgByLevel[child.Level])
		}
		shift := multipole.NewExpansion(d.Opt.Order, c.Center)
		shift.AddShifted(raw)
		e.AddExpansion(shift)
	}
	d.addBackground(e, c)
	e.FinalizeNorms()
	c.Exp = e
}
