// Package twohot is a from-scratch Go implementation of 2HOT, the improved
// parallel hashed oct-tree N-body algorithm for cosmological simulation of
// Warren (SC '13).  The root package exposes the user-facing API: a Config
// describing a simulation (cosmology, initial conditions, force solver, time
// stepping, outputs; DecodeConfig reads one from JSON), a Simulation that
// runs it, and the analysis catalogs it measures (Analyze, scheduled in-situ
// outputs, AnalyzeSnapshot).
//
// The engine is composed of three pluggable pieces, built from the Config
// when first used (construction only applies defaults; trees and meshes are
// allocated by the first solve) or injected through functional options on
// New:
//
//   - ForceSolver — the gravity backend (tree, distributed tree, TreePM,
//     PM, direct summation): one solve method, ActiveForces, and one
//     implementation.  NewForceSolver is the one constructor and the only
//     SolverKind dispatch.
//   - Stepper — the time integrator: hierarchical block timesteps, whose
//     one-level form is the global leapfrog (step.NewEngine builds it, for a
//     run and a cluster rank alike).
//   - Observer — registered diagnostics hooks (OnStep, OnForce,
//     OnSynchronize) receiving step statistics, rung histograms and energy
//     tallies; ObserverFuncs adapts plain functions.
//
// The public surface is guarded by a golden listing (api.txt,
// TestAPISurface).
//
// The algorithmic machinery lives in the internal packages:
//
//	internal/keys       space-filling-curve keys (the "hashed" in HOT)
//	internal/multipole  Cartesian multipole expansions to order p=8, error bounds
//	internal/cube       analytic homogeneous-cube fields (background subtraction)
//	internal/tree       the hashed oct-tree (local and distributed)
//	internal/traverse   the MAC, interaction lists, background subtraction, periodic replicas
//	internal/core       the assembled force solvers (tree, direct, Ewald, distributed)
//	internal/step       the block-timestep engine (one level = global leapfrog) and the rung scheduler
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
