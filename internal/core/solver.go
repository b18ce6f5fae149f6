// Package core assembles the paper's primary contribution: the 2HOT force
// solvers.  The shared-memory TreeSolver couples the hashed oct-tree, the
// Cartesian multipole machinery, background subtraction, the absolute-error
// MAC, force smoothing and the periodic-boundary treatment into a single
// force calculation; the DirectSolver (float64 and float32) and the Ewald
// reference provide the lower rungs of the verification "distance ladder" of
// Section 5; and the distributed solver (distributed.go) runs the same
// physics across message-passing ranks with domain decomposition, branch
// exchange and ABM tree-cell fetching.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"twohot/internal/ewald"
	"twohot/internal/par"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/traverse"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// Result is the outcome of a force computation.
type Result struct {
	Acc      []vec.V3  // accelerations, in the caller's particle order
	Pot      []float64 // kernel sums (physical potential = -Pot)
	Counters traverse.Counters
	// Traversal reports how the interaction lists were built (replica walks,
	// list inheritance) for solvers that traverse a tree.
	Traversal traverse.TraversalStats
	// Work is the per-particle interaction count of this solve, in the
	// caller's particle order — the feedback the stepping pipeline's
	// work-weighted rebalancing consumes.  Only the tree solver fills it.
	Work []float64
	// Build reports how the tree build's sort phase ran (incremental order
	// reuse, near-sorted fast path).  Only the tree solver fills it.
	Build   tree.BuildStats
	Timings Timings
}

// Timings breaks a force computation into the stages reported by Table 2.
type Timings struct {
	DomainDecomposition time.Duration
	TreeBuild           time.Duration
	TreeTraversal       time.Duration
	Communication       time.Duration
	ForceEvaluation     time.Duration
	LoadImbalance       time.Duration
	Total               time.Duration
}

// TreeConfig configures the 2HOT tree solver.
type TreeConfig struct {
	Order    int // multipole order p (2 = quadrupole, 4 = hexadecapole, up to 8)
	LeafSize int

	MAC    traverse.MACType
	Theta  float64 // Barnes-Hut opening angle (MACBarnesHut)
	ErrTol float64 // dimensionless error tolerance (MACAbsoluteError); the paper's production value is 1e-5

	Kernel softening.Kernel
	Eps    float64

	G float64 // gravitational constant (cosmo.G for cosmological runs, 1 for unit tests)

	Periodic              bool
	BoxSize               float64
	BackgroundSubtraction bool
	WS                    int // explicit replica shells for periodic runs (paper: 2)
	LatticeOrder          int // far-lattice local expansion order (0 disables)

	Workers int // tree-build and traversal worker goroutines (0 = GOMAXPROCS)

	// Incremental makes consecutive solves on the same solver reuse
	// the previous call's sorted particle order to seed the tree build
	// (tree.Options.Previous).  On a near-static snapshot the near-sorted
	// fast path then replaces the radix sort; the built tree — and hence
	// every force — is bit-identical to a from-scratch solve regardless.
	Incremental bool

	// SplitRS, when positive, runs every traversal in TreePM short-range
	// mode (traverse.Config.SplitRS): erfc-complement damping at split scale
	// SplitRS, exact pair truncation and cell pruning at SplitRCut (defaults
	// to 4.5*SplitRS).  A configuration composing with a mesh long range
	// must keep BackgroundSubtraction and LatticeOrder off — the mesh owns
	// the long-range field, including the mean density and the infinite
	// replica sum.
	SplitRS   float64
	SplitRCut float64
}

func (c *TreeConfig) defaults() {
	if c.Order == 0 {
		c.Order = 4
	}
	if c.LeafSize == 0 {
		c.LeafSize = 16
	}
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.ErrTol == 0 {
		c.ErrTol = 1e-5
	}
	if c.G == 0 {
		c.G = 1
	}
	c.Workers = par.Workers(c.Workers)
	if c.Periodic && c.WS == 0 {
		c.WS = 1
	}
	if c.SplitRS > 0 && c.SplitRCut == 0 {
		c.SplitRCut = 4.5 * c.SplitRS
	}
}

// TreeSolver is the shared-memory 2HOT solver.  It is stateful across solves:
// the previous call's tree seeds the incremental rebuild (when
// Cfg.Incremental is set), the walker — with its replica offsets, far-lattice
// sums and pooled traversal buffers — is retained, and the particle staging
// buffers are reused.  None of that state changes any result bit; it only
// removes per-step setup cost.  A TreeSolver must not be used from multiple
// goroutines concurrently.
type TreeSolver struct {
	Cfg TreeConfig

	// LastTree is the most recently built tree (for inspection by tests and
	// analysis tools, and the seed of the next incremental build).
	LastTree *tree.Tree

	// Persistent per-step state (see the type comment).
	walker     *traverse.Walker
	scratch    tree.BuildScratch
	cp         []vec.V3
	cm         []float64
	sinkWork   []float64
	workOut    []float64
	sinkActive []bool
}

// NewTreeSolver returns a solver with the given configuration.
func NewTreeSolver(cfg TreeConfig) *TreeSolver {
	cfg.defaults()
	return &TreeSolver{Cfg: cfg}
}

// ResetReuse drops the cross-step state (previous tree, cached walker), as
// after loading an unrelated particle set.  Purely a hygiene measure: stale
// state cannot change results, only waste the fast path.
func (s *TreeSolver) ResetReuse() {
	s.LastTree = nil
	s.walker = nil
}

// RootBox returns the cubical root volume used for the given positions.
func (s *TreeSolver) RootBox(pos []vec.V3) vec.Box {
	if s.Cfg.Periodic {
		return vec.CubeBox(vec.V3{}, s.Cfg.BoxSize)
	}
	return vec.BoundingBox(pos).Cubed(1e-3)
}

// accTol converts the dimensionless error tolerance into an absolute
// acceleration tolerance using the characteristic acceleration
// G_internal * M_total / R^2 of the system (G is applied after traversal, so
// the traversal-level tolerance omits it).
func (c TreeConfig) accTol(totalMass float64, box vec.Box) float64 {
	r := box.MaxSide() / 2
	if r == 0 {
		r = 1
	}
	return c.ErrTol * totalMass / (r * r)
}

// walkConfig is the traversal configuration this tree configuration implies
// for a system of the given total mass in box.
func (c TreeConfig) walkConfig(totalMass float64, box vec.Box) traverse.Config {
	return traverse.Config{
		MAC:          c.MAC,
		Theta:        c.Theta,
		AccTol:       c.accTol(totalMass, box),
		Kernel:       c.Kernel,
		Eps:          c.Eps,
		G:            c.G,
		Periodic:     c.Periodic,
		BoxSize:      c.BoxSize,
		WS:           c.WS,
		LatticeOrder: c.LatticeOrder,
		SplitRS:      c.SplitRS,
		SplitRCut:    c.SplitRCut,
	}
}

// ActiveForces computes accelerations and kernel sums for the sinks of p
// marked in active (set order; nil means every particle) — the one entry
// point, with the step.Forcer signature.  Sources are always the full set, so
// for every active particle the returned Acc, Pot and Work are bit-identical
// to a full solve's; slots of inactive particles are unspecified except Work,
// which carries the input weight through so the feedback loop keeps a cost
// estimate for particles that have not been sinks recently.
//
// p.Work holds the per-particle work weights of the previous solve (nil for
// none): the traversal cuts its sink-subtree tasks into contiguous per-worker
// shards of near-equal predicted weight — the shared-memory counterpart of the
// paper's work-weighted domain decomposition.  The weights steer only the
// schedule, never a result bit; Result.Work carries this solve's interaction
// counts for the next call.
//
// moved (set order, nil for "unknown") marks the particles whose positions
// changed since this solver's previous call — the dirty set of the
// incremental rebuild: with Cfg.Incremental set, subtrees untouched by any
// moved particle are copied from the previous step's tree, cells and moments
// alike, instead of being rebuilt (tree.Options.Dirty).  Like every other
// reuse in this pipeline it changes no result bit; a conservative
// over-marking only shrinks the reuse.
func (s *TreeSolver) ActiveForces(p *particle.Set, active, moved []bool) (*Result, error) {
	pos, mass, work := p.Pos, p.Mass, p.Work
	cfg := s.Cfg
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("core: %d positions but %d masses", len(pos), len(mass))
	}
	if work != nil && len(work) != len(pos) {
		return nil, fmt.Errorf("core: %d positions but %d work weights", len(pos), len(work))
	}
	if active != nil && len(active) != len(pos) {
		return nil, fmt.Errorf("core: %d positions but %d active flags", len(pos), len(active))
	}
	if moved != nil && len(moved) != len(pos) {
		return nil, fmt.Errorf("core: %d positions but %d moved flags", len(pos), len(moved))
	}
	if len(pos) == 0 {
		return &Result{}, nil
	}
	n := len(pos)
	start := time.Now()
	box := s.RootBox(pos)

	// The tree build reorders particles; stage copies in the solver's
	// persistent buffers so the caller's ordering is preserved.  The
	// previous tree only retains its SortIndex relevance — overwriting the
	// buffers its arrays alias is fine because the incremental build reads
	// the new positions through the previous *order*, not the previous
	// values.
	tree.GrowSlice(&s.cp, n)
	tree.GrowSlice(&s.cm, n)
	copy(s.cp, pos)
	copy(s.cm, mass)

	totalMass := 0.0
	for _, m := range s.cm {
		totalMass += m
	}
	rhoBar := 0.0
	if cfg.BackgroundSubtraction {
		rhoBar = totalMass / box.Volume()
	}

	opt := tree.Options{
		Order:    cfg.Order,
		LeafSize: cfg.LeafSize,
		RhoBar:   rhoBar,
		Workers:  cfg.Workers,
		Scratch:  &s.scratch,
	}
	if cfg.Incremental && s.LastTree != nil && len(s.LastTree.SortIndex) == n {
		opt.Previous = s.LastTree
		opt.Dirty = moved
	}
	tb := time.Now()
	tr, err := tree.Build(s.cp, s.cm, box, opt)
	if err != nil {
		return nil, err
	}
	s.LastTree = tr
	buildTime := time.Since(tb)

	walkCfg := cfg.walkConfig(totalMass, box)
	// Walker setup happens outside the traversal window so that
	// Timings.Total - Timings.TreeTraversal isolates the per-step rebuild
	// pipeline (staging, build, solver setup, scatter) the persistent state
	// amortizes.
	if s.walker == nil {
		s.walker = traverse.NewWalker(tr, walkCfg)
	} else {
		// Same Periodic/BoxSize/WS/LatticeOrder every call (they come from
		// s.Cfg), so the cached offsets and lattice stay valid.
		s.walker.ResetTree(tr, walkCfg)
	}
	w := s.walker
	if work != nil {
		tree.GrowSlice(&s.sinkWork, n)
		for i, orig := range tr.SortIndex {
			s.sinkWork[i] = work[orig]
		}
		w.SinkWork = s.sinkWork
	} else {
		w.SinkWork = nil
	}
	tree.GrowSlice(&s.workOut, n)
	w.WorkOut = s.workOut
	if active != nil {
		// Map the activity mask into sorted order for the traversal; the
		// walker field is cleared right after the solve so a later full
		// solve through the retained walker cannot inherit a stale mask.
		tree.GrowSlice(&s.sinkActive, n)
		for i, orig := range tr.SortIndex {
			s.sinkActive[i] = active[orig]
		}
		w.SinkActive = s.sinkActive
	} else {
		w.SinkActive = nil
	}

	tt := time.Now()
	accSorted, potSorted, counters := w.ForcesForAll(cfg.Workers)
	w.SinkActive = nil
	travTime := time.Since(tt)

	// Scatter back to the caller's order.  In a subset solve only the active
	// slots carry results; inactive ones stay zero and keep their incoming
	// work weight so the shard feedback never forgets a particle's cost.
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	outWork := make([]float64, n)
	if active == nil {
		for i, orig := range tr.SortIndex {
			acc[orig] = accSorted[i]
			pot[orig] = potSorted[i]
			outWork[orig] = s.workOut[i]
		}
	} else {
		for i, orig := range tr.SortIndex {
			if active[orig] {
				acc[orig] = accSorted[i]
				pot[orig] = potSorted[i]
				outWork[orig] = s.workOut[i]
			} else if work != nil {
				outWork[orig] = work[orig]
			}
		}
	}
	return &Result{
		Acc:       acc,
		Pot:       pot,
		Counters:  counters,
		Traversal: w.LastStats,
		Work:      outWork,
		Build:     tr.Stats,
		Timings: Timings{
			TreeBuild:       buildTime,
			TreeTraversal:   travTime,
			ForceEvaluation: travTime,
			Total:           time.Since(start),
		},
	}, nil
}

// DirectSolver is the O(N^2) float64 reference solver.  For periodic
// configurations it uses brute-force Ewald summation, which is exact but very
// slow (verification only).
type DirectSolver struct {
	Kernel   softening.Kernel
	Eps      float64
	G        float64
	Periodic bool
	BoxSize  float64
	Ewald    ewald.Options
	Workers  int
}

// Forces computes accelerations and kernel sums for the particle set by
// direct summation.
func (s *DirectSolver) Forces(pos []vec.V3, mass []float64) (*Result, error) {
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("core: %d positions but %d masses", len(pos), len(mass))
	}
	g := s.G
	if g == 0 {
		g = 1
	}
	start := time.Now()
	n := len(pos)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)

	workers := par.Workers(s.Workers)
	if s.Periodic {
		// Peculiar accelerations from Ewald images plus neutralizing
		// background.  Each sink's image sums are independent, so the rows
		// parallelize without changing a bit of the result.
		par.For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					d := pos[i].Sub(pos[j])
					a := ewald.Accel(d, s.BoxSize, s.Ewald)
					acc[i] = acc[i].Add(a.Scale(g * mass[j]))
					pot[i] += g * mass[j] * ewald.Potential(d, s.BoxSize, s.Ewald)
				}
			}
		})
	} else {
		par.For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var a vec.V3
				var p float64
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					d := pos[j].Sub(pos[i])
					r := d.Norm()
					ff := softening.ForceFactor(s.Kernel, r, s.Eps)
					pf := softening.PotentialFactor(s.Kernel, r, s.Eps)
					a = a.Add(d.Scale(g * mass[j] * ff))
					p += g * mass[j] * pf
				}
				acc[i] = a
				pot[i] = p
			}
		})
	}
	return &Result{
		Acc: acc, Pot: pot,
		Timings: Timings{ForceEvaluation: time.Since(start), Total: time.Since(start)},
	}, nil
}

// AccuracyStats summarizes the per-particle relative acceleration error of a
// solver against a reference.
type AccuracyStats struct {
	RMS, Median, Max, Mean float64
}

// CompareAccelerations computes error statistics of test against ref,
// normalizing by the rms reference acceleration (the convention of the
// paper's force-accuracy discussion).
func CompareAccelerations(test, ref []vec.V3) AccuracyStats {
	if len(test) != len(ref) {
		panic("core: acceleration slices differ in length")
	}
	n := len(ref)
	if n == 0 {
		return AccuracyStats{}
	}
	rms := 0.0
	for _, a := range ref {
		rms += a.Norm2()
	}
	rms = math.Sqrt(rms / float64(n))
	if rms == 0 {
		rms = 1
	}
	errs := make([]float64, n)
	var stats AccuracyStats
	for i := range ref {
		e := test[i].Sub(ref[i]).Norm() / rms
		errs[i] = e
		stats.Mean += e
		stats.RMS += e * e
		if e > stats.Max {
			stats.Max = e
		}
	}
	stats.Mean /= float64(n)
	stats.RMS = math.Sqrt(stats.RMS / float64(n))
	stats.Median = median(errs)
	return stats
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
