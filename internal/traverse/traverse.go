package traverse

import (
	"twohot/internal/ewald"
	"twohot/internal/multipole"
	"twohot/internal/par"
	"twohot/internal/softening"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// MACType selects the multipole acceptance criterion.
type MACType int

const (
	// MACAbsoluteError accepts an interaction when the estimated
	// acceleration error is below AccTol (2HOT's production criterion).
	MACAbsoluteError MACType = iota
	// MACBarnesHut accepts when cellSize/distance < Theta.
	MACBarnesHut
)

// Config controls a traversal.
type Config struct {
	MAC    MACType
	Theta  float64 // Barnes-Hut opening angle
	AccTol float64 // absolute acceleration error tolerance (before multiplying by G)

	Kernel softening.Kernel
	Eps    float64 // softening scale (kernel support, or Plummer eps)

	G float64 // gravitational constant applied to the final accelerations

	// Periodic boundary handling (Section 2.4).
	Periodic     bool
	BoxSize      float64
	WS           int // explicit replica shells (2 in the paper); 0 disables replicas
	LatticeOrder int // local-expansion order for the far lattice; 0 disables it

	// SplitRS, when positive, runs the traversal in TreePM short-range mode:
	// every interaction — multipole and particle-particle — is damped by the
	// erfc complement of the Gaussian force split at scale SplitRS
	// (softening.Split, tabulated), pairs beyond SplitRCut are dropped exactly,
	// and source cells whose every body lies beyond SplitRCut of every sink
	// of a group are pruned from the walk (the pruning is exact with respect
	// to the truncated short-range force, not an approximation).  Accepted
	// cells apply the split factors at the sink-to-cell-center distance, the
	// GADGET-style scalar approximation; the Newtonian MAC error estimate
	// stays valid because truncation only ever shrinks the interaction.
	// Short-range mode composes with a mesh long range, so it requires
	// background subtraction and the far lattice to be off.
	SplitRS float64
	// SplitRCut is the short-range truncation radius in length units;
	// defaults to 4.5 * SplitRS (ignored when SplitRS is zero).
	SplitRCut float64
}

func (c *Config) defaults() {
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.G == 0 {
		c.G = 1
	}
	if c.Kernel == 0 && c.Eps == 0 {
		c.Kernel = softening.None
	}
	if c.SplitRS > 0 && c.SplitRCut == 0 {
		c.SplitRCut = 4.5 * c.SplitRS
	}
}

// Counters accumulates interaction statistics for one force computation.
type Counters struct {
	P2P         int64                         // particle-particle interactions
	CellByOrder [multipole.MaxOrder + 1]int64 // cell-body interactions by evaluated order
	BgCubes     int64                         // analytic near-field background cube interactions
	SinkCells   int64
	Sinks       int64
}

// Add merges other into c.
func (c *Counters) Add(o Counters) {
	c.P2P += o.P2P
	for i := range c.CellByOrder {
		c.CellByOrder[i] += o.CellByOrder[i]
	}
	c.BgCubes += o.BgCubes
	c.SinkCells += o.SinkCells
	c.Sinks += o.Sinks
}

// CellInteractions returns the total number of cell-body interactions.
func (c *Counters) CellInteractions() int64 {
	var t int64
	for _, v := range c.CellByOrder {
		t += v
	}
	return t
}

// Flops estimates the floating-point work using the per-interaction costs of
// the paper's accounting (28 flops per monopole, and the Cartesian tensor
// costs for the higher orders).
func (c *Counters) Flops() int64 {
	var f int64
	f += c.P2P * multipole.FlopsPerMonopole
	for q, n := range c.CellByOrder {
		switch {
		case q == 0:
			f += n * multipole.FlopsPerMonopole
		case q <= 2:
			f += n * multipole.FlopsPerQuadrupole
		case q <= 4:
			f += n * multipole.FlopsPerHexadecapole
		default:
			f += n * multipole.FlopsPerHexadecapole * int64(q*q) / 16
		}
	}
	f += c.BgCubes * 96
	return f
}

// Walker performs traversals over one tree.
type Walker struct {
	Tree *tree.Tree
	Cfg  Config

	// SinkWork, with one weight per (sorted) particle, steers how
	// ForcesForAll cuts its sink subtree tasks into contiguous per-worker
	// shards of near-equal predicted weight (domain.SplitWeighted) — the
	// shared-memory analogue of the paper's work-weighted domain
	// decomposition, fed by the previous step's per-particle interaction
	// counts.  Without it every particle weighs one unit.  Tasks write
	// disjoint particle ranges, so the results are bit-identical for any
	// weights; only which goroutine computes what changes.
	SinkWork []float64
	// WorkOut, when non-nil with one slot per (sorted) particle, receives
	// each particle's interaction count (far cells + direct pairs +
	// background cubes) — the work feedback the next step's shards and the
	// distributed decomposition rebalance on.
	WorkOut []float64

	// SinkActive, when non-nil with one flag per (sorted) particle,
	// restricts ForcesForAll to the sink groups containing at least one
	// active particle: sink subtrees with no active particle are pruned
	// from the descent and never refine a work list.  Results are
	// specified for ACTIVE particles only, and for those they are
	// bit-identical to a full solve — each group's interaction list is
	// independent of which other groups run, which is what makes the
	// subset solve exact.  Inactive slots are unspecified: pruned groups
	// never write theirs, and inactive members of processed groups skip
	// the far-lattice/G post-pass (postProcess), so their partial sums
	// must never be read.
	SinkActive []bool

	// LastStats describes the traversal-internal work of the most recent
	// ForcesForAll call (list reuse, frontier size); it is bookkeeping
	// about how the lists were built, not physics, so it is deliberately
	// kept out of Counters.
	LastStats TraversalStats

	lattice *ewald.Lattice
	local   *multipole.Local
	offsets []vec.V3

	// Pooled state of the list-inheriting traversal (inherit.go), reused
	// across ForcesForAll calls so steady-state allocations stay near zero.
	sb     sinkBounds
	initWL worklist
	pool   []*inheritWS
	tasks  []inheritTask

	// Sink-bound cache across trees: sbPrev holds the bounds computed for
	// sbPrevFor (the tree ForcesForAll last ran on before ResetTree), so
	// subtrees the dirty-set rebuild copied verbatim can copy their bounds
	// instead of re-deriving them (see buildSinkBounds).  sbFor names the
	// tree w.sb currently describes.
	sbPrev             sinkBounds
	sbFor, sbPrevFor   *tree.Tree
	boundsReusedLatest int64

	// Pooled activity state (SinkActive): prefix sums of the active flags
	// over the sorted particle order, the per-particle group-active mask
	// and the masked shard weights derived from it.
	activePrefix []int32
	groupMask    []bool
	maskedWork   []float64
}

// NewWalker prepares a walker; for periodic configurations it precomputes the
// replica offsets and the far-lattice local expansion of the whole box.
func NewWalker(t *tree.Tree, cfg Config) *Walker {
	cfg.defaults()
	w := &Walker{Tree: t, Cfg: cfg}
	if cfg.Periodic {
		ws := cfg.WS
		if ws < 1 {
			ws = 1
		}
		w.offsets = append([]vec.V3{{0, 0, 0}}, ewald.ReplicaOffsets(ws, cfg.BoxSize)...)
		if cfg.LatticeOrder > 0 {
			order := cfg.LatticeOrder + t.Opt.Order
			lat := ewald.NewLattice(order, ws, cfg.BoxSize, 0) // 0 = the default summation extent
			w.lattice = lat
			w.local = multipole.NewLocal(cfg.LatticeOrder, t.Root().Exp.Center)
			w.local.AddM2L(t.Root().Exp, lat.T)
		}
	} else {
		w.offsets = []vec.V3{{0, 0, 0}}
	}
	return w
}

// ResetTree points an existing walker at a freshly built tree, retaining
// everything that does not depend on the particle distribution: the replica
// offsets, the far-lattice sums (NewLattice is the expensive part of walker
// construction), the pooled per-worker traversal buffers, and the previous
// tree's sink bounds (the seed of the clean-subtree bound cache).  cfg replaces
// the walker's Config and must agree with the original on the fields the
// retained state was derived from — Periodic, BoxSize, WS and LatticeOrder;
// scalar fields (AccTol, G, kernel) may change freely.  The
// box-summed local expansion is recomputed from the new tree's root moments,
// so a traversal after ResetTree is bit-identical to one on a freshly
// constructed walker.
func (w *Walker) ResetTree(t *tree.Tree, cfg Config) {
	cfg.defaults()
	if t != w.Tree {
		// Retire the current bounds to the cache side: if the new tree's
		// dirty-set rebuild copied subtrees from the old one, buildSinkBounds
		// transplants their bounds from sbPrev.
		w.sb, w.sbPrev = w.sbPrev, w.sb
		w.sbPrevFor, w.sbFor = w.sbFor, nil
	}
	w.Tree = t
	w.Cfg = cfg
	if w.lattice != nil {
		w.local = multipole.NewLocal(cfg.LatticeOrder, t.Root().Exp.Center)
		w.local.AddM2L(t.Root().Exp, w.lattice.T)
	}
}

// sinkGroup describes one block of sink particles (normally a leaf cell).
type sinkGroup struct {
	center vec.V3
	radius float64
	first  int
	count  int
}

// postProcess adds the far-lattice local expansion and applies the final
// scaling by G, over nWorkers goroutines.  Every particle's contribution is
// independent, so the parallel split does not change a single bit.  Inactive
// particles of a subset solve are skipped — their slots are unspecified
// anyway, and the far-lattice evaluation is the one per-particle cost that
// would otherwise still scale with the full particle count.
func (w *Walker) postProcess(acc []vec.V3, pot []float64, nWorkers int) {
	t := w.Tree
	active := w.SinkActive
	par.For(len(acc), nWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if active != nil && !active[i] {
				continue
			}
			if w.local != nil {
				res := w.local.Evaluate(t.Pos[i])
				acc[i] = acc[i].Add(res.Acc)
				pot[i] += res.Phi
			}
			acc[i] = acc[i].Scale(w.Cfg.G)
			pot[i] *= w.Cfg.G
		}
	})
}

// checkSplitConfig rejects short-range-mode configurations that silently
// double-count the long range: background subtraction folds the mean density
// into the walk and the far lattice sums the infinite replica field — both
// belong to the mesh half of a TreePM split, never to the rcut-truncated
// short range.
func (w *Walker) checkSplitConfig() {
	if w.Cfg.SplitRS <= 0 {
		return
	}
	if w.Tree.RhoBar() > 0 {
		panic("traverse: short-range split mode requires background subtraction off")
	}
	if w.local != nil {
		panic("traverse: short-range split mode requires the far lattice off")
	}
}

// sinkRadius is the maximum distance from the cell center to any of its
// bodies.
func sinkRadius(t *tree.Tree, c *tree.Cell) float64 {
	r := 0.0
	for i := c.First; i < c.First+c.NBodies; i++ {
		if d := t.Pos[i].Dist(c.Center); d > r {
			r = d
		}
	}
	return r
}

// chooseOrder returns the lowest expansion order whose error estimate meets
// the tolerance (never above the stored order).
func (w *Walker) chooseOrder(c *tree.Cell, d float64) int {
	if w.Cfg.MAC == MACBarnesHut {
		return c.Exp.P
	}
	return c.Exp.LowestOrder(d, w.Cfg.AccTol)
}

// octantBox returns the spatial region of child octant oct of cell c.
func octantBox(c *tree.Cell, oct int) vec.Box {
	h := c.Size / 2
	lo := c.Center.Sub(vec.V3{h, h, h})
	half := c.Size / 2
	// Octant bit layout follows the Morton interleave: bit2 = x, bit1 = y,
	// bit0 = z.
	if oct&4 != 0 {
		lo[0] += half
	}
	if oct&2 != 0 {
		lo[1] += half
	}
	if oct&1 != 0 {
		lo[2] += half
	}
	return vec.CubeBox(lo, half)
}

// accept applies the multipole acceptance criterion for a source cell at
// effective distance d (center distance minus sink radius).
func (w *Walker) accept(c *tree.Cell, d float64) bool {
	// Never accept the interaction if the sink may be inside or touching the
	// source's body distribution.
	if d <= c.Exp.Bmax || d <= 0 {
		return false
	}
	// A cell with very few bodies is cheaper to open than to expand, unless
	// it is remote (remote leaves were already shipped with their bodies).
	if c.Leaf && c.NBodies <= 2 && !c.Remote && w.Tree.RhoBar() == 0 {
		return false
	}
	switch w.Cfg.MAC {
	case MACBarnesHut:
		return multipole.BHAccept(c.Size, c.Exp.Bmax, d, w.Cfg.Theta)
	default:
		return c.Exp.AccelErrorEstimate(c.Exp.P, d) <= w.Cfg.AccTol
	}
}
