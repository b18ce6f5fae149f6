// Package step implements the time integrator of the simulation — the
// hierarchical block-timestep engine (Block), driving an abstract force
// backend (Forcer) against an integrator clock (Clock), whose one-level form
// is the global symplectic leapfrog — plus the scheduler it is built from:
// power-of-two rung assignment, the substep ladder, and the per-particle
// integrator state a block-stepped run carries between substeps.
//
// # Engine
//
// The engine mutates the particle set and the Clock in place; the root
// package's Simulation owns both and builds the engine from its Config
// (NewEngine; or accepts an injected one through its public Stepper seam,
// which Block implements structurally).  The engine never knows which
// backend computes forces: Forcer is satisfied by every root-package
// ForceSolver — tree, TreePM, mesh, direct — and the engine gates
// nothing on the backend kind.  Scatter defines which Result slots a solve
// writes back into the set.  Each multi-rung block ends with a
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
// arguments of the leapfrog's single kick.  That degeneracy is what
// makes a block step whose particles all sit on rung 0 bit-identical to the
// global leapfrog step, whether the engine has one level or many (pinned by
// simulation_blockstep_test.go at the repository root, and against the
// leapfrog arithmetic itself by this package's tests).
//
// # Split integrator
//
// A Forcer whose full solve returns core.Result.Long (TreePM's mesh long
// range, also inside Acc) gets GADGET-2's split integrator: the long range is
// solved once per block, on the fully active substep 0, and kicked over the
// base step (clk.AMom to rung 0's half step, whatever the rung):
//
//	Acc·K(MomEpoch → aHalf[r]) + Long·(K(AMom → aHalf[0]) − K(MomEpoch → aHalf[r]))
//
// Synchronize closes both parts the same way.  Every later substep masks
// its solve, even when all particles are active, so it returns the short
// range alone, and that is what Set.Acc's active slots then hold.  The
// correction is exactly 0 on rung 0 at the block's epoch and is skipped, so
// an all-rung-0 block keeps the unsplit leapfrog's bits; a Forcer without
// Long (tree, ranks, direct) runs the unsplit integrator.
//
// # Distributed stepping
//
// A multi-process cluster run has no integrator of its own: each rank of
// internal/cluster drives the engine NewEngine builds — the same call a
// single-process Simulation makes — against a Forcer backed by its share of
// the distributed force solve.  The leapfrog arithmetic therefore exists
// once, here, for every transport.
//
// The engine runs unchanged over message-passing ranks because its
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
//     rung lives on one rank.  A one-level engine has one schedule and never
//     calls the hook, so a global-timestep run pays no agreement.
//
//   - Synchronized checkpoint boundaries.  CheckpointReady reports whether
//     the momenta collapse to a single epoch; mid-block (or after a genuinely
//     multi-rung block) they do not, and a snapshot cannot represent them.
//     Distributed runners must decide collectively — a one-float allreduce of
//     the local verdicts — whether to Synchronize before writing, because a
//     rank-local decision would diverge and deadlock the collectives.
//     (A one-level engine's verdict is always "ready"; the cluster body asks
//     it anyway, so every run takes the same collectives.)
//
// When every particle sits on rung 0 the schedule has one substep, the
// engine hands the solver a nil activity mask, and the distributed block run
// is bit-identical to the distributed one-level run — the same degeneracy as
// in the single-rank case, pinned across transports by internal/cluster's
// block-mode tests.
//
// # Concurrency model
//
// Everything here is plain data owned by one integrator: no goroutines, no
// shared state.  A Block or FactorCache must not be used from multiple
// goroutines concurrently.
package step
