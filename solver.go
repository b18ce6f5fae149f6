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
}

// ForceSolver is the pluggable gravity backend of a Simulation: one contract
// implemented by the 2HOT tree, the TreePM composite, the pure particle-mesh
// baseline and the direct-summation reference.  A Simulation holds exactly
// one ForceSolver, constructed from its Config on first use or injected with
// WithSolver.
//
// ActiveForces returns results in the set's particle order.  It does not
// write into the set's Acc/Pot/Work arrays — the caller scatters what it
// needs (the stepping engines write all slots of a full solve and only the
// active slots of a subset solve).  Backends that redistribute particles
// (the distributed tree) regroup the set in place, all arrays together, so
// callers holding an older ordering must match by ID.  Result.Pot is nil
// when the backend computes no potential (TreePM, PM) and Result.Work is nil
// when it records no per-particle work (PM, direct).
//
// A ForceSolver may be stateful across calls (the tree backends reuse the
// previous solve's sorted order) and must not be used from multiple
// goroutines concurrently.
type ForceSolver interface {
	// Name identifies the backend ("tree", "treepm", "pm", "direct").
	Name() string
	// Capabilities reports the backend's feature support: callers rely on it
	// to gate ActiveForces masks.
	Capabilities() Capabilities
	// ActiveForces computes comoving accelerations for the sinks marked in
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
		tc := cfg.treeConfig()
		if cfg.Ranks > 1 {
			// The distributed pipeline (core.DistributedStep on cfg.Ranks
			// in-process ranks).  Every solve regroups the particle set by
			// owning rank in place: positions, momenta, accelerations and work
			// travel together, so stepping continues transparently, but callers
			// holding a prior ordering must match by ID.  The decomposition
			// balances the per-particle work of the previous solve (carried in
			// Set.Work across the exchange) — the paper's cross-step
			// amortization.  An active mask is stamped into the set's flags,
			// travels with each particle through the exchange and prunes every
			// rank's traversal; incremental rebuilds stop at the rank boundary.
			solve := func(p *particle.Set, active, moved []bool) (*core.Result, error) {
				if active != nil {
					p.SetActive(active)
				}
				res, err := core.DistributedStep(p, core.DistributedConfig{
					Tree:           tc,
					NRanks:         cfg.Ranks,
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
			return &backendForceSolver{name: string(SolverTree), caps: Capabilities{ActiveSubsets: true}, solve: solve}, nil
		}
		ts := core.NewTreeSolver(tc)
		return &backendForceSolver{
			name:  string(SolverTree),
			caps:  Capabilities{ActiveSubsets: true},
			solve: ts.ActiveForces,
			reset: ts.ResetReuse,
		}, nil
	case SolverTreePM:
		// The Gaussian-split mesh long range (pm.Solver.LongRange) plus the
		// erfc-complement short range walked by the tree in split mode
		// (treeConfig carries the split scale and turns background subtraction
		// and the far lattice off).  The composite inherits the tree's
		// active-subset, incremental and work-feedback machinery; the mesh half
		// depends on every position but is deterministic, so active slots of a
		// subset solve stay bit-identical to a full solve.  The short-range
		// kernel sums alone are not the system potential, so Pot is nil.
		ts, ps := core.NewTreeSolver(cfg.treeConfig()), pm.NewSolver(cfg.pmOptions())
		var long []vec.V3
		solve := func(p *particle.Set, active, moved []bool) (*core.Result, error) {
			res, err := ts.ActiveForces(p, active, moved)
			if err != nil || p.Len() == 0 {
				return res, err
			}
			// Only active slots receive the mesh force (inactive slots of a
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
			caps:  Capabilities{ActiveSubsets: true},
			solve: solve,
			reset: ts.ResetReuse,
		}, nil
	case SolverPM:
		ps := pm.NewSolver(cfg.pmOptions())
		return &backendForceSolver{name: string(SolverPM), solve: func(p *particle.Set, _, _ []bool) (*core.Result, error) {
			if p.Len() == 0 {
				return &core.Result{}, nil
			}
			acc := make([]vec.V3, p.Len())
			ps.LongRange(p.Pos, p.Mass[0], acc)
			return &core.Result{Acc: acc}, nil
		}}, nil
	case SolverDirect:
		// Brute-force Ewald summation: the verification reference.
		d := core.DirectSolver{
			Kernel: cfg.kernel(), Eps: cfg.SofteningLength(), G: cosmo.G,
			Periodic: true, BoxSize: cfg.BoxSize,
		}
		return &backendForceSolver{
			name:  string(SolverDirect),
			solve: func(p *particle.Set, _, _ []bool) (*core.Result, error) { return d.Forces(p.Pos, p.Mass) },
		}, nil
	default:
		return nil, fmt.Errorf("twohot: unknown solver %q", cfg.Solver)
	}
}

// backendForceSolver is the one ForceSolver implementation: a name, what the
// backend supports, its solve and its reset.  NewForceSolver only says what
// differs between backends; the contract's shared half — a mask without
// ActiveSubsets is an error — lives here once.
type backendForceSolver struct {
	name  string
	caps  Capabilities
	solve func(p *particle.Set, active, moved []bool) (*core.Result, error)
	reset func() // nil: the backend keeps no cross-call state
}

func (b *backendForceSolver) Name() string { return b.name }

func (b *backendForceSolver) Capabilities() Capabilities { return b.caps }

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
