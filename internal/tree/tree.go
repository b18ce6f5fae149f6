// Package tree implements the hashed oct-tree (HOT) data structure: cells
// named by space-filling-curve keys, stored in an open-addressing hash table,
// built from key-sorted particle arrays, carrying Cartesian multipole moments
// about their geometric centers (so that the uniform-background moments of
// 2HOT's background subtraction can be folded in), and supporting remote
// cells whose children are fetched on demand from the owning rank during a
// distributed traversal.
package tree

import (
	"fmt"
	"math"
	"sort"
	"time"

	"twohot/internal/cube"
	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/parsort"
	"twohot/internal/vec"
)

// NoChild marks an absent child slot.
const NoChild int32 = -1

// Cell is one node ("hcell") of the hashed oct-tree.
type Cell struct {
	Key    keys.Key
	Center vec.V3  // geometric center of the cell cube
	Size   float64 // cube side length
	Level  int

	NBodies int
	First   int // index of the first particle of this cell in the tree's sorted particle arrays (local cells only)
	Leaf    bool

	ChildMask uint8 // octants that contain bodies (known even for remote cells)
	ChildIdx  [8]int32

	Owner  int  // owning rank in a distributed tree (== tree.Rank for local cells)
	Remote bool // true if this cell's children live on another rank and must be fetched

	Exp *multipole.Expansion // delta moments (particles minus uniform background when background subtraction is on)

	// Remote leaf payload: particle data shipped along with a fetched leaf.
	RemotePos  []vec.V3
	RemoteMass []float64
}

// Box returns the spatial extent of the cell.
func (c *Cell) Box() vec.Box {
	h := c.Size / 2
	return vec.Box{Lo: c.Center.Sub(vec.V3{h, h, h}), Hi: c.Center.Add(vec.V3{h, h, h})}
}

// Options configures tree construction.
type Options struct {
	Order    int // multipole expansion order p
	LeafSize int // maximum bodies per leaf cell
	// RhoBar, when positive, enables background subtraction: the moments of
	// a uniform cube of density -RhoBar are added to every cell so that far
	// interactions act on the density contrast (Section 2.2.1).
	RhoBar float64
	Rank   int // owning rank id (0 for shared-memory trees)
	// Workers is the number of goroutines used by the build pipeline
	// (key computation, record sort, subtree construction, moment pass).
	// 0 means GOMAXPROCS; with 1 the pipeline's tasks run one after
	// another.  The built tree is bit-identical for every worker count.
	Workers int
	// Previous, when non-nil, seeds the incremental rebuild: particles are
	// re-keyed in the previous tree's sorted record order, so on a
	// near-static snapshot the record array arrives almost sorted and the
	// near-sorted fast path of parsort.SortKVAdaptive replaces the full
	// radix sort.  The previous order is a pure performance hint — the sort
	// order is total, so the built tree is bit-identical to a from-scratch
	// build no matter how stale (or wrong) Previous is.  Previous must
	// describe the same particle count; anything else disables the reuse.
	// Build clears this field on the new tree so retained trees never chain.
	Previous *Tree
	// Dirty, when non-nil alongside a compatible Previous (same length as
	// the particle arrays, indexed in the caller's particle order), marks
	// the particles whose position or mass changed since Previous was
	// built and arms the subtree-reuse path: subtrees whose body-key
	// interval contains no dirty particle (old or new key) are copied from
	// Previous — cells and moments — instead of being rebuilt, and only
	// the dirty spine is re-derived.  Marking an unchanged particle dirty
	// is safe (it only shrinks the reuse); failing to mark a changed one
	// violates the contract and silently corrupts the tree.  The built
	// tree is bit-identical to a from-scratch build for every worker
	// count (dirty_test.go).  Build clears this field on the new tree.
	Dirty []bool
	// Scratch, when non-nil, supplies reusable allocations for the sort and
	// gather stages of the build (see BuildScratch).  Passing the same
	// scratch to successive builds transfers ownership of the retained
	// key/index arrays between them: only the two most recent trees built
	// from one scratch stay valid, older ones see their Keys/SortIndex
	// overwritten.  The stepping pipeline, which keeps exactly the previous
	// step's tree, satisfies that contract; callers that retain more trees
	// must not share a scratch.
	Scratch *BuildScratch
}

// BuildScratch pools the large transient slices of the build pipeline — the
// sort records and the gather staging buffers — plus double buffers for the
// sorted key/index arrays the built tree retains.  The zero value is ready to
// use.
type BuildScratch struct {
	recs  []parsort.KV
	gpos  []vec.V3
	gmass []float64
	dirty []uint64 // sorted dirty-key set of the subtree-reuse path
	// Double-buffered retained arrays: build k hands out side k%2, so the
	// previous build's tree (side (k-1)%2) stays fully intact while it
	// seeds the incremental sort.
	keys [2][]uint64
	idx  [2][]int
	flip int
}

// BuildStats reports how a build's sort phase ran (see Options.Previous).
type BuildStats struct {
	// Reused is true when a previous tree's sorted order seeded the re-key.
	Reused bool
	// FastPath is true when the near-sorted merge path sorted the records
	// (always false for from-scratch builds).
	FastPath bool
	// Displaced is the number of sort records that had left the previous
	// order (the disorder the fast path absorbed or aborted on).
	Displaced int
	// SortTime is the wall-clock of the record sort alone — the stage the
	// incremental fast path replaces — so the step benchmark can compare
	// the two strategies on exactly the work that differs between them.
	SortTime time.Duration
	// ReusedSubtrees and ReusedCells count the subtree copies the
	// dirty-set path performed (see Options.Dirty); both zero when the
	// path was disabled or nothing was clean.
	ReusedSubtrees int
	ReusedCells    int
}

func (o *Options) defaults() {
	if o.Order == 0 {
		o.Order = 4
	}
	if o.LeafSize == 0 {
		o.LeafSize = 16
	}
}

// Tree is a hashed oct-tree over a key-sorted particle array.
type Tree struct {
	Opt  Options
	Box  vec.Box // root cube
	Hash *HashTable
	Cell []*Cell

	// Particle arrays sorted by key (referenced by First/NBodies of local
	// cells).
	Pos  []vec.V3
	Mass []float64
	Keys []uint64
	// SortIndex maps sorted particle slot -> index in the caller's original
	// ordering, so solvers can scatter results back.
	SortIndex []int

	// Stats describes how the sort phase of this build ran (incremental
	// reuse, near-sorted fast path) and how much of the tree the dirty-set
	// path copied from the previous one.
	Stats BuildStats

	// Reuse lists the subtrees copied verbatim from the previous tree
	// (empty unless Options.Dirty armed the subtree-reuse path); see
	// ReusedSubtree for what consumers may do with the segments.
	Reuse []ReusedSubtree

	// Transient dirty-set state of the current build (see dirty.go):
	// the copy source, and the sorted old+new body keys of the dirty
	// particles.  Both are cleared before Build returns; reuseFrom
	// survives so consumers can validate the Reuse segments against the
	// tree they refer to.
	prev      *Tree
	dirtyKeys []uint64
	reuseFrom *Tree

	// Background moments per level (index = level), present when RhoBar>0.
	bgByLevel []*multipole.Expansion

	// FetchChildren, if set, is called when a traversal needs the children
	// of a remote cell; it must return the child cells (fully populated,
	// including moments and leaf payloads) which are then cached in the
	// hash table.  Used by the distributed solver via ABM.
	FetchChildren func(c *Cell) []Cell // returned cells are copied into the tree

	RootIdx int32
}

// Build constructs a tree for the given particles.  The particle arrays are
// reordered in place into canonical (key, original index) order; the tree
// retains references to them.  box must be the cubical root volume containing
// all positions.
//
// Construction is a pipeline over opt.Workers goroutines: keys are computed
// in chunks, the (key, index) records are sorted with the parsort record
// sort, the domain is split into subtrees built into per-task arenas, and the
// stitched upper cells get their moments in a final pass (pbuild.go).  The
// result is bit-identical for every worker count: the sort order is total,
// the arena/stitch layout is the recursive pre-order, and every moment is
// computed by the same code over the same operands in the same sequence.
func Build(pos []vec.V3, mass []float64, box vec.Box, opt Options) (*Tree, error) {
	t, workers, err := newTree(pos, mass, box, opt, 0)
	if err != nil {
		return nil, err
	}
	t.RootIdx = t.buildRange(keys.RootKey, 0, len(pos), workers)
	t.prev = nil
	t.dirtyKeys = nil
	t.Opt.Dirty = nil // the tree must not retain the caller's dirty mask
	return t, nil
}

// newTree is the prologue Build and NewDistributed share: option defaults,
// the input checks, the key sort of the particle arrays and the background
// moments.  hashSlack reserves hash-table room beyond the local cells.  It
// returns the resolved worker count.
func newTree(pos []vec.V3, mass []float64, box vec.Box, opt Options, hashSlack int) (*Tree, int, error) {
	opt.defaults()
	if len(pos) != len(mass) {
		return nil, 0, fmt.Errorf("tree: position and mass lengths differ")
	}
	if len(pos) == 0 {
		return nil, 0, fmt.Errorf("tree: cannot build a tree with no particles")
	}
	if len(pos) > math.MaxInt32 {
		return nil, 0, fmt.Errorf("tree: %d particles exceed the 2^31 sort-record limit", len(pos))
	}
	t := &Tree{
		Opt:  opt,
		Box:  box,
		Hash: NewHashTable(2*len(pos) + hashSlack),
		Pos:  pos,
		Mass: mass,
	}
	workers := opt.workerCount()
	t.sortParticles(workers)
	if opt.RhoBar > 0 {
		t.buildBackgroundMoments()
	}
	return t, workers, nil
}

// buildBackgroundMoments caches, per level, the multipole moments of a
// uniform cube of density -RhoBar with the cell size of that level.
func (t *Tree) buildBackgroundMoments() {
	t.bgByLevel = make([]*multipole.Expansion, keys.MaxDepth+1)
	rootSide := t.Box.MaxSide()
	for l := 0; l <= keys.MaxDepth; l++ {
		side := rootSide / float64(uint64(1)<<uint(l))
		t.bgByLevel[l] = cube.BackgroundMoments(t.Opt.Order, side, t.Opt.RhoBar)
	}
}

// BackgroundMomentsForLevel exposes the cached background moments (nil when
// background subtraction is off).
func (t *Tree) BackgroundMomentsForLevel(level int) *multipole.Expansion {
	if t.bgByLevel == nil || level < 0 || level >= len(t.bgByLevel) {
		return nil
	}
	return t.bgByLevel[level]
}

// RhoBar returns the background density (0 when subtraction is off).
func (t *Tree) RhoBar() float64 { return t.Opt.RhoBar }

// newCell initializes the common fields of a local cell covering the given
// particle range.  The arena builds and the stitch walk both construct cells
// through this single helper so their layouts cannot diverge.
func (t *Tree) newCell(key keys.Key, first, count int) Cell {
	box := key.CellBox(t.Box)
	c := Cell{
		Key:     key,
		Center:  box.Center(),
		Size:    box.MaxSide(),
		Level:   key.Level(),
		NBodies: count,
		First:   first,
		Owner:   t.Opt.Rank,
	}
	for i := range c.ChildIdx {
		c.ChildIdx[i] = NoChild
	}
	return c
}

// childUpperBound returns how many of the sorted keys in t.Keys[lo:hi] fall
// inside childKey's body-key range (lo being the first candidate slot).
func (t *Tree) childUpperBound(childKey keys.Key, lo, hi int) int {
	_, hiKey := childKey.BodyRange()
	return sort.Search(hi-lo, func(i int) bool { return t.Keys[lo+i] > uint64(hiKey) })
}

// leafMoments computes the delta moments of a leaf cell from its particle
// range.  It only reads shared tree state, so concurrent calls on distinct
// cells are safe.
func (t *Tree) leafMoments(c *Cell) {
	e := multipole.NewExpansion(t.Opt.Order, c.Center)
	for i := c.First; i < c.First+c.NBodies; i++ {
		e.AddParticle(t.Pos[i], t.Mass[i])
	}
	t.addBackground(e, c)
	e.FinalizeNorms()
	c.Exp = e
}

func (t *Tree) computeInternalMoments(idx int32) {
	c := t.Cell[idx]
	t.internalMoments(c, func(oct int) *Cell {
		if ci := c.ChildIdx[oct]; ci != NoChild {
			return t.Cell[ci]
		}
		return nil
	})
}

// internalMoments shifts the children's moments (resolved through child, so
// callers can supply arena-local children) up to cell c.  The octant loop and
// the arithmetic are shared by the arena builds and the stitched upper-cell
// pass, which keeps the two bit-identical.
func (t *Tree) internalMoments(c *Cell, childAt func(oct int) *Cell) {
	e := multipole.NewExpansion(t.Opt.Order, c.Center)
	for oct := 0; oct < 8; oct++ {
		child := childAt(oct)
		if child == nil {
			continue
		}
		// The children carry delta moments (background already added); to
		// avoid double counting, shift the raw particle moments instead:
		// rebuild the parent from the children's delta moments minus their
		// background, then add the parent's own background.  Equivalent and
		// cheaper: shift child moments and subtract the shifted child
		// backgrounds, but since the background of the parent equals the
		// sum of the backgrounds of all 8 octants (empty ones included),
		// the clean formulation is: parent_delta = sum(shifted child raw)
		// + parent background.  We therefore keep raw moments during the
		// upward pass and add backgrounds in a final pass -- implemented by
		// subtracting the child's background before shifting.
		raw := child.Exp
		if t.bgByLevel != nil {
			raw = cloneMinusBackground(child.Exp, t.bgByLevel[child.Level])
		}
		shift := multipole.NewExpansion(t.Opt.Order, c.Center)
		shift.AddShifted(raw)
		e.AddExpansion(shift)
	}
	t.addBackground(e, c)
	// Tighten bmax: it can never exceed the distance from the center to the
	// cell corner (all bodies lie inside the cell).
	half := c.Size / 2
	corner := math.Sqrt(3) * half
	if e.Bmax > corner {
		e.Bmax = corner
	}
	e.FinalizeNorms()
	c.Exp = e
}

func cloneMinusBackground(e, bg *multipole.Expansion) *multipole.Expansion {
	out := multipole.NewExpansion(e.P, e.Center)
	out.AddExpansion(e)
	for i := range out.M {
		out.M[i] -= bg.M[i]
	}
	// Absolute moments of the raw particles: remove the background's
	// contribution (they were added in addBackground).
	for n := range out.B {
		out.B[n] -= bg.B[n]
		if out.B[n] < 0 {
			out.B[n] = 0
		}
	}
	out.Mass -= bg.Mass
	return out
}

func (t *Tree) addBackground(e *multipole.Expansion, c *Cell) {
	if t.bgByLevel == nil {
		return
	}
	e.AddExpansion(t.bgByLevel[c.Level])
}

// Root returns the root cell.
func (t *Tree) Root() *Cell { return t.Cell[t.RootIdx] }

// CellByKey returns the cell with the given key, if present.
func (t *Tree) CellByKey(k keys.Key) (*Cell, bool) {
	idx, ok := t.Hash.Get(k)
	if !ok {
		return nil, false
	}
	return t.Cell[idx], true
}

// Child returns child oct of cell c, fetching remote children on demand.
// It returns nil if the octant is empty.  Fetching mutates the tree, so a
// tree with remote cells must only be traversed by its owning rank's
// goroutine.
func (t *Tree) Child(c *Cell, oct int) *Cell {
	if c.ChildMask&(1<<uint(oct)) == 0 {
		return nil
	}
	if c.ChildIdx[oct] != NoChild {
		return t.Cell[c.ChildIdx[oct]]
	}
	// Remote cell: fetch all children at once and cache them.
	if t.FetchChildren == nil {
		panic(fmt.Sprintf("tree: cell %x has unresolved children and no fetcher", uint64(c.Key)))
	}
	children := t.FetchChildren(c)
	for i := range children {
		child := children[i]
		octant := child.Key.Octant()
		idx := int32(len(t.Cell))
		for j := range child.ChildIdx {
			child.ChildIdx[j] = NoChild
		}
		t.Cell = append(t.Cell, &child)
		t.Hash.Put(child.Key, idx)
		c.ChildIdx[octant] = idx
	}
	if c.ChildIdx[oct] == NoChild {
		return nil
	}
	return t.Cell[c.ChildIdx[oct]]
}

// LeafParticles returns the positions and masses of the bodies in a leaf
// cell, whether local or fetched from a remote rank.
func (t *Tree) LeafParticles(c *Cell) ([]vec.V3, []float64) {
	if c.RemotePos != nil {
		return c.RemotePos, c.RemoteMass
	}
	return t.Pos[c.First : c.First+c.NBodies], t.Mass[c.First : c.First+c.NBodies]
}

// Leaves returns the indices of all local leaf cells.
func (t *Tree) Leaves() []int32 {
	var out []int32
	for i := range t.Cell {
		if t.Cell[i].Leaf && !t.Cell[i].Remote {
			out = append(out, int32(i))
		}
	}
	return out
}

// NumCells returns the number of cells currently held (including fetched
// remote cells).
func (t *Tree) NumCells() int { return len(t.Cell) }

// TotalMass returns the total particle mass under the root (excluding any
// background-subtraction contribution).
func (t *Tree) TotalMass() float64 {
	m := 0.0
	for _, mm := range t.Mass {
		m += mm
	}
	return m
}
