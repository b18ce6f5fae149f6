// Package step implements the time-integration engines of the simulation —
// the global symplectic leapfrog (Global) and the hierarchical
// block-timestep integrator (Block), both driving an abstract force backend
// (Forcer) against an integrator clock (Clock) — plus the scheduler the
// block engine is built from: power-of-two rung assignment, the substep
// ladder, and the per-particle integrator state a block-stepped run carries
// between substeps.
//
// # Engines
//
// An engine mutates the particle set and the Clock in place; the root
// package's Simulation owns both and selects an engine from its Config (or
// accepts an injected one through its public Stepper seam, which this
// package's engines implement structurally).  Engines never know which
// backend computes forces: Forcer is satisfied by every root-package
// ForceSolver — tree, TreePM, mesh, direct — and the engines gate
// nothing on the backend kind.  Scatter defines which Result slots a solve
// writes back into the set.  Block additionally applies a between-block
// work-weight decay (decayStaleWork): coarse-rung particles' stale weights
// are pulled toward the mean so the shard balancer stops chasing cooled hot
// spots — schedule-only, never a result bit.
//
// # Contract
//
// A block step of base size dlnA is divided among rung levels 0..maxRung:
// rung r steps with dlnA/2^r, the block runs 2^maxUsedRung substeps, and
// rung r is active exactly at substep indices divisible by its span
// (Schedule).  Particles are assigned to rungs at block boundaries — the
// only instants at which every particle's position epoch coincides — by a
// per-particle step limit quantized to the next power-of-two division
// (RungFor), the hierarchical form of the paper's factor-of-two timestep
// policy.  Between its own steps a particle is frozen: its
// position does not move and its momentum epoch (Set.MomEpoch) trails by its
// own rung's half step, which is precisely what lets the tree build reuse
// the subtrees it occupies bit for bit (tree.Options.Dirty) and the
// traversal skip its sink groups (traverse.Walker.SinkActive).
//
// # Bit-identity invariants
//
// The scheduler itself computes no physics; it decides who steps when.  The
// one arithmetic helper, FactorCache, memoizes a kick/drift integral on the
// exact bit pattern of the "from" epoch — so when every particle shares one
// epoch, the factor is obtained by exactly one call with exactly the
// arguments the global integrator would pass.  That degeneracy is what
// makes a block step whose particles all sit on rung 0 bit-identical to the
// global leapfrog step (pinned by simulation_blockstep_test.go at the
// repository root).
//
// # Distributed stepping
//
// A multi-process cluster run has no integrator of its own: each rank of
// internal/cluster drives one of these engines — Global, or Block when block
// stepping is configured, the same choice a single-process Simulation makes —
// against a Forcer backed by its share of the distributed force solve.  The
// leapfrog arithmetic therefore exists once, here, for every transport.
//
// The engines run unchanged over message-passing ranks because their
// per-particle state is not engine-private: rungs, momentum epochs and
// activity flags live in the particle set itself (particle.Set.Rung,
// MomEpoch, Flags), travel inside the wire record of every exchange, and the
// engine re-reads them from whatever set the Forcer hands back — so a solve
// that regroups particles across ranks cannot strand integrator state.  Two
// protocol points make the composition deterministic:
//
//   - Rung agreement.  Each rank assigns rungs locally, then the optional
//     AgreeRungs hook combines the per-rank rung histograms (the cluster
//     runner sums them with one allgather).  Every rank derives the block's
//     substep schedule from the agreed histogram, never from its local
//     maximum, so the worlds march in lockstep even when the finest occupied
//     rung lives on one rank.
//
//   - Synchronized checkpoint boundaries.  CheckpointReady reports whether
//     the momenta collapse to a single epoch; mid-block (or after a genuinely
//     multi-rung block) they do not, and a snapshot cannot represent them.
//     Distributed runners must decide collectively — a one-float allreduce of
//     the local verdicts — whether to Synchronize before writing, because a
//     rank-local decision would diverge and deadlock the collectives.
//     (Global's verdict is always "ready"; the cluster body asks it anyway,
//     so both engines run the same collectives.)
//
// When every particle sits on rung 0 the schedule has one substep, the
// engine hands the solver a nil activity mask, and the distributed block run
// is bit-identical to the distributed global run — the same degeneracy as in
// the single-rank case, pinned across transports by internal/cluster's
// block-mode tests.
//
// # Concurrency model
//
// Everything here is plain data owned by one integrator: no goroutines, no
// shared state.  An engine or FactorCache must not be used from multiple
// goroutines concurrently.
package step
