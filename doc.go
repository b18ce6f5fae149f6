// Package twohot is a from-scratch Go implementation of 2HOT, the improved
// parallel hashed oct-tree N-body algorithm for cosmological simulation of
// Warren (SC '13).  The root package exposes the user-facing API: a Config
// describing a simulation (cosmology, initial conditions, force solver, time
// stepping, outputs), a Simulation that runs it, and measurement helpers
// (power spectra, halo catalogs, mass functions).
//
// The engine is composed of three pluggable pieces, built from the Config
// when first used (construction only applies defaults; trees and meshes are
// allocated by the first solve) or injected through functional options on
// New:
//
//   - ForceSolver — the gravity backend (tree, distributed tree, TreePM,
//     PM, direct summation), one contract with an honest Capabilities
//     report and one implementation: a constructor per backend supplies its
//     name, capabilities and solve.  NewForceSolver is the only SolverKind
//     dispatch.
//   - Stepper — the time integrator (global leapfrog or hierarchical block
//     timesteps; step.NewEngine picks, for a run and a cluster rank alike).
//   - Observer — registered diagnostics hooks (OnStep, OnForce,
//     OnSynchronize) receiving step statistics, rung histograms and energy
//     tallies.
//
// # Migration note (pluggable-engine redesign)
//
// Two signatures changed when the engine API landed:
//
//   - New(cfg) is now New(cfg, opts...).  Existing calls compile unchanged;
//     the variadic options (WithSolver, WithStepper, WithObserver,
//     WithProgress) are additive.
//   - Run(progress func(step int, z float64)) is now Run().  Port a
//     progress callback with New(cfg, WithProgress(fn)) or
//     sim.AddObserver(ProgressObserver(fn)); Run(nil) becomes Run().
//
// Results are unchanged: the tree path of the redesigned engine is pinned
// bit-identical to the pre-redesign inline path
// (TestTreeAdapterBitIdenticalToLegacyPath), and the public surface itself
// is now guarded by a golden listing (api.txt, TestAPISurface).
//
// # Migration note (TreePM tree short range)
//
// Config.Solver = "treepm" now composes the mesh long range with a
// tree-walked short range (NewTreePMForceSolver): the traversal evaluates
// multipoles and pairs through the erfc split kernel and prunes cells wholly
// beyond the cutoff Config.RCut (in units of the split scale, default 4.5).
// The former brute-force cell-list short range remains available as an
// injectable oracle, NewPMForceSolver(opt) with opt.Asmth > 0.  pm.Options
// also gained a Workers field; its zero value keeps the previous behavior
// (GOMAXPROCS), so existing literals compile and run unchanged.
//
// The algorithmic machinery lives in the internal packages:
//
//	internal/keys       space-filling-curve keys (the "hashed" in HOT)
//	internal/multipole  Cartesian multipole expansions to order p=8, error bounds
//	internal/cube       analytic homogeneous-cube fields (background subtraction)
//	internal/tree       the hashed oct-tree (local and distributed)
//	internal/traverse   the MAC, interaction lists, background subtraction, periodic replicas
//	internal/core       the assembled force solvers (tree, direct, Ewald, distributed)
//	internal/step       stepping engines (global leapfrog, block timesteps) and the rung scheduler
//	internal/comm       the message-passing runtime (ranks, collectives, ABM)
//	internal/domain     space-filling-curve domain decomposition
//	internal/cosmo      Friedmann background, growth factors, drift/kick integrals
//	internal/transfer   Eisenstein-Hu linear power spectra
//	internal/ic         Zel'dovich and 2LPT initial conditions
//	internal/pm         particle-mesh / TreePM baseline (the GADGET-2 stand-in)
//	internal/halo       FOF and spherical-overdensity halo finding
//	internal/massfunc   mass functions and the Tinker08 / Warren06 fits
//	internal/sdf        self-describing file format snapshots and checkpoints
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
package twohot
