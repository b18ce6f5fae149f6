// Package domain implements the work-balanced partitioning of the paper's
// Section 3.1, at both of the granularities the codebase schedules on.
//
// # Contract
//
// Distributed: Decompose sorts particle keys along the space-filling curve
// (a sample sort with an American-flag radix sort on-node), chooses splitter
// keys so that each rank's domain receives approximately equal work —
// particle counts, or the per-particle interaction counts recorded by the
// previous force solve (Options.UseWork) — and exchanges particles, as
// particle wire records (particle.EncodeRange), with the direct Alltoallv (the
// paper's direct/pairwise/hierarchical comparison lives in comm).  Every
// call samples splitters afresh from the current keys.
//
// Shared-memory: SplitWeighted is the same idea for an already-ordered
// sequence — it cuts per-item work weights into contiguous shards of
// near-equal cumulative weight by an exact quantile walk, deterministically.
// The tree traversal uses it to shard its sink-subtree tasks across worker
// goroutines; MaskWeights adapts the inputs to partially-active substeps by
// zeroing the weights of items that will not run, so block-timestep solves
// balance only the work that actually executes (missing weights read as one
// unit per item).  ShardImbalance reports the max/mean balance quality of a
// split.
//
// # Bit-identity invariants
//
// Every function in this package steers scheduling — which rank or worker
// computes what — and must never influence a result bit.  Splitter choice,
// shard boundaries and weight masks are deterministic functions of their
// inputs; the traversal's workshard suite pins that any shard weights
// produce identical bits, and the distributed
// equivalence suite pins the decomposed solve against the serial solver.
//
// # Concurrency model
//
// Decompose and ExchangeParticles are collectives: every rank of
// the communicator must call them together.  SplitWeighted, MaskWeights and
// ShardImbalance are pure functions, safe from any goroutine as long as the
// caller owns the slices.
package domain
