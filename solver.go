package twohot

import (
	"fmt"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/pm"
	"twohot/internal/vec"
)

// Capabilities reports what a ForceSolver backend supports, so the stepping
// engines and callers can gate features on it instead of switching on the
// backend kind.
type Capabilities struct {
	// ActiveSubsets: ActiveForces accepts a non-nil active mask and solves
	// only those sinks against the full source set (the block-timestep
	// entry point).  Solvers without it reject non-nil masks with an error.
	ActiveSubsets bool `json:"active_subsets"`
	// Incremental: consecutive solves on the same solver reuse cross-call
	// state (sorted particle order, clean subtrees keyed on the moved
	// mask), bit-identically to a from-scratch solve.
	Incremental bool `json:"incremental"`
	// WorkFeedback: Result.Work carries per-particle interaction counts and
	// the solver consumes the set's Work weights to balance its internal
	// schedule (never changing a result bit).
	WorkFeedback bool `json:"work_feedback"`
	// Potential: Result.Pot is filled with kernel sums.
	Potential bool `json:"potential"`
}

// ForceSolver is the pluggable gravity backend of a Simulation: one contract
// implemented by the 2HOT tree, the TreePM composite, the pure particle-mesh
// baseline and the direct-summation reference.  A Simulation holds exactly
// one ForceSolver, constructed from its Config on first use or injected with
// WithSolver.
//
// Both solve methods return results in the set's particle order.  They do not
// write into the set's Acc/Pot/Work arrays — the caller scatters what it
// needs (the stepping engines write all slots of a full solve and only the
// active slots of a subset solve).  Backends that redistribute particles
// (the distributed tree) regroup the set in place, all arrays together, so
// callers holding an older ordering must match by ID.
//
// A ForceSolver may be stateful across calls (Capabilities.Incremental) and
// must not be used from multiple goroutines concurrently.
type ForceSolver interface {
	// Name identifies the backend ("tree", "treepm", "pm", "direct").
	Name() string
	// Capabilities reports the backend's feature support honestly: callers
	// rely on it to gate ActiveForces masks and to interpret nil Result
	// arrays.
	Capabilities() Capabilities
	// Accelerations computes comoving accelerations for every particle.
	Accelerations(p *particle.Set) (*core.Result, error)
	// ActiveForces is Accelerations restricted to the sinks marked in
	// active (nil = every particle), with moved marking the particles whose
	// positions changed since this solver's previous call (nil = unknown).
	// Solvers without Capabilities.ActiveSubsets return an error for a
	// non-nil active mask; a nil mask is always accepted.
	ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error)
	// Reset drops cross-call reuse state, as after installing an unrelated
	// particle load.  Purely hygiene: stale state cannot change results.
	Reset()
}

// NewForceSolver constructs the force solver a configuration describes —
// the single place the SolverKind dispatch lives.  Construction only applies
// defaults: the heavy backend state (tree staging buffers, mesh grids) is
// allocated by the first solve, so constructing a solver for inspection is
// free.
func NewForceSolver(cfg Config) (ForceSolver, error) {
	switch cfg.Solver {
	case SolverTree:
		if cfg.Ranks > 1 {
			return NewDistributedTreeForceSolver(cfg.treeConfig(), cfg.Ranks), nil
		}
		return NewTreeForceSolver(cfg.treeConfig()), nil
	case SolverTreePM:
		return NewTreePMForceSolver(cfg.treeConfig(), cfg.pmOptions()), nil
	case SolverPM:
		return NewPMForceSolver(cfg.pmOptions()), nil
	case SolverDirect:
		return NewDirectForceSolver(core.DirectSolver{
			Kernel: cfg.kernel(), Eps: cfg.SofteningLength(), G: cosmo.G,
			Periodic: true, BoxSize: cfg.BoxSize,
		}), nil
	default:
		return nil, fmt.Errorf("twohot: unknown solver %q", cfg.Solver)
	}
}

// backendForceSolver is the one ForceSolver implementation: a name, what the
// backend supports, its solve and its reset.  The constructors below only say
// what differs between backends; the contract's shared half — Accelerations
// is an unmasked ActiveForces, a mask without ActiveSubsets is an error —
// lives here once.
type backendForceSolver struct {
	name  string
	caps  Capabilities
	solve func(p *particle.Set, active, moved []bool) (*core.Result, error)
	reset func() // nil: the backend keeps no cross-call state
}

func (b *backendForceSolver) Name() string { return b.name }

func (b *backendForceSolver) Capabilities() Capabilities { return b.caps }

func (b *backendForceSolver) Accelerations(p *particle.Set) (*core.Result, error) {
	return b.ActiveForces(p, nil, nil)
}

func (b *backendForceSolver) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	if active != nil && !b.caps.ActiveSubsets {
		return nil, fmt.Errorf("twohot: the %s solver does not support active-subset solves", b.name)
	}
	return b.solve(p, active, moved)
}

func (b *backendForceSolver) Reset() {
	if b.reset != nil {
		b.reset()
	}
}

// NewTreeForceSolver wraps the shared-memory 2HOT tree solver as a
// ForceSolver.
func NewTreeForceSolver(cfg core.TreeConfig) ForceSolver {
	ts := core.NewTreeSolver(cfg)
	return &backendForceSolver{
		name:  string(SolverTree),
		caps:  Capabilities{ActiveSubsets: true, Incremental: ts.Cfg.Incremental, WorkFeedback: true, Potential: true},
		solve: ts.ActiveForces,
		reset: ts.ResetReuse,
	}
}

// NewDistributedTreeForceSolver wraps the distributed tree pipeline
// (core.DistributedStep on ranks in-process ranks) as a ForceSolver.  Every
// solve regroups the particle set by owning rank in place: positions,
// momenta, accelerations and work travel together, so stepping continues
// transparently, but callers holding a prior ordering must match by ID.  The
// domain decomposition balances the per-particle work recorded by the
// previous solve (carried in Set.Work across the exchange) — the paper's
// cross-step amortization.
//
// Active subsets cross the rank boundary: the mask is stamped into the set's
// flags, travels with each particle through the domain exchange, and prunes
// every rank's traversal (DistributedConfig.ActiveMask); a nil mask leaves
// the flags alone and takes the plain full-solve path.  Incremental rebuilds
// stop at the boundary — each solve chooses fresh splitters and rebuilds the
// local trees.
func NewDistributedTreeForceSolver(cfg core.TreeConfig, ranks int) ForceSolver {
	solve := func(p *particle.Set, active, moved []bool) (*core.Result, error) {
		if active != nil {
			p.SetActive(active)
		}
		res, err := core.DistributedStep(p, core.DistributedConfig{
			Tree:           cfg,
			NRanks:         ranks,
			BranchExchange: "ring",
			UseWorkWeights: true,
			ActiveMask:     active != nil,
		})
		if err != nil {
			return nil, err
		}
		// Regroup in place so the caller's Set pointer stays valid.
		*p = *res.ParticlesOut
		return &core.Result{Acc: p.Acc, Pot: p.Pot, Work: p.Work, Counters: res.Counters, Timings: res.Timings}, nil
	}
	return &backendForceSolver{
		name:  string(SolverTree),
		caps:  Capabilities{ActiveSubsets: true, WorkFeedback: true, Potential: true},
		solve: solve,
	}
}

// NewTreePMForceSolver composes the production TreePM as one ForceSolver: the
// Gaussian-split mesh long range (pm.Solver.LongRange) plus the tree-evaluated
// erfc-complement short range (core.TreeSolver in split mode).  Because the
// short range runs through the tree, the composite inherits the tree's
// active-subset, incremental-rebuild and work-feedback machinery — the mesh
// half depends on every position but is deterministic, so active slots of a
// subset solve stay bit-identical to a full solve.  The short-range kernel
// sums alone are not the system potential (the mesh half supplies none), so
// the composite does not advertise one.
//
// treeCfg must carry the split (SplitRS > 0, matching the mesh options' Asmth
// split scale) and must leave background subtraction and the far lattice off;
// NewForceSolver derives such a pair from a Config via treeConfig/pmOptions.
func NewTreePMForceSolver(treeCfg core.TreeConfig, pmOpt pm.Options) ForceSolver {
	ts, ps := core.NewTreeSolver(treeCfg), pm.NewSolver(pmOpt)
	var long []vec.V3
	solve := func(p *particle.Set, active, moved []bool) (*core.Result, error) {
		res, err := ts.ActiveForces(p, active, moved)
		if err != nil || p.Len() == 0 {
			return res, err
		}
		// The mesh force depends on every position through the deposit, so it is
		// recomputed per solve; only active slots receive it (inactive slots of a
		// subset solve are unspecified, like the tree's).
		if cap(long) < p.Len() {
			long = make([]vec.V3, p.Len())
		}
		long = long[:p.Len()]
		ps.LongRange(p.Pos, p.Mass[0], long)
		for i := range res.Acc {
			if active == nil || active[i] {
				res.Acc[i] = res.Acc[i].Add(long[i])
			}
		}
		res.Pot = nil
		return res, nil
	}
	return &backendForceSolver{
		name:  string(SolverTreePM),
		caps:  Capabilities{ActiveSubsets: true, Incremental: ts.Cfg.Incremental, WorkFeedback: true},
		solve: solve,
		reset: ts.ResetReuse,
	}
}

// NewPMForceSolver wraps the mesh solver as a ForceSolver: pure PM when
// opt.Asmth == 0, the mesh long range plus the brute-force cell-list short
// range otherwise.  The brute-force variant is no longer what SolverTreePM
// constructs (that is the tree-short-range composite, NewTreePMForceSolver);
// it survives as the exact-short-range oracle the conformance suite and the
// bench tool compare the tree walk against.  Mesh state is allocated per
// solve, so construction is free.
func NewPMForceSolver(opt pm.Options) ForceSolver {
	ps := pm.NewSolver(opt)
	name := SolverPM
	if opt.Asmth > 0 {
		name = SolverTreePM
	}
	return &backendForceSolver{name: string(name), solve: func(p *particle.Set, _, _ []bool) (*core.Result, error) {
		if p.Len() == 0 {
			return &core.Result{}, nil
		}
		acc := make([]vec.V3, p.Len())
		ps.Accelerations(p.Pos, p.Mass[0], acc)
		return &core.Result{Acc: acc}, nil
	}}
}

// NewDirectForceSolver wraps the direct-summation reference (brute-force
// Ewald for periodic configurations) as a ForceSolver.
func NewDirectForceSolver(d core.DirectSolver) ForceSolver {
	return &backendForceSolver{
		name:  string(SolverDirect),
		caps:  Capabilities{Potential: true},
		solve: func(p *particle.Set, _, _ []bool) (*core.Result, error) { return d.Forces(p.Pos, p.Mass) },
	}
}
