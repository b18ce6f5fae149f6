// Package traverse implements the 2HOT tree traversal: the multipole
// acceptance criterion (both the Barnes–Hut opening angle and the
// absolute-error criterion built on the Salmon–Warren error machinery),
// interaction-list construction with the m-by-n blocking of Section 3.3,
// background subtraction in both the far field (delta moments) and the near
// field (analytic uniform-cube removal), explicit periodic replicas and the
// far-lattice local expansion of Section 2.4, and the interaction counters
// behind the paper's flop accounting.
//
// # Contract
//
// The production entry point is Walker.ForcesForAll (inherit.go): the sink
// tree is descended top-down carrying a work list whose entries are either
// decided (far cells, near sources, background boxes every descendant sink
// treats identically) or open (cells whose acceptance still depends on which
// descendant asks); child sinks inherit the decided entries and spend
// acceptance tests only on the open frontier.  Work lists are offset-sorted
// by construction — the initial list holds one open entry per replica
// offset, and refinement expands an entry only into entries of the same
// offset — an invariant the refinement loop exploits to hoist the replica
// shift per run.  Resolved lists are applied through batched SoA kernels
// with pooled per-worker buffers.
//
// Two orthogonal restrictions compose with all of that:
//
//   - Walker.SinkActive prunes the descent to the sink groups holding at
//     least one active particle (a block-timestep substep).  Because every
//     group's interaction list is independent of all other groups, the
//     subset solve is exact, not approximate.
//   - Walker.SinkWork cuts the sink-subtree tasks into contiguous
//     per-worker shards of near-equal predicted weight (work feedback from
//     the previous step); under SinkActive the weights of pruned groups are
//     masked out first (domain.MaskWeights).
//
// # Bit-identity invariants
//
// The suites in this package pin, with exact float comparisons:
//
//   - ForcesForAll == forcesForAllLegacy (the original walk-from-root-per-
//     group traversal, the reference oracle in legacy_test.go) — per
//     particle and per interaction counter, across MACs, kernels, periodic
//     settings and worker counts (equiv_test.go);
//   - every worker count and both schedules (dynamic task pull vs static
//     work-weighted shards) produce identical bits (workshard_test.go);
//   - a SinkActive subset solve equals the full solve on every active
//     particle (active_test.go);
//   - a walker whose sink-distance bounds were transplanted across a
//     dirty-set rebuild (tree.Tree.Reuse segments, cached on the walker
//     between ResetTree calls) solves identically to a fresh walker
//     (active_test.go).
//
// # Concurrency model
//
// A Walker is single-client: one ForcesForAll call at a time, and the
// pooled per-worker state it retains between calls makes the struct itself
// non-reentrant.  Inside a call, worker goroutines own disjoint sink-subtree
// tasks and write disjoint particle ranges; the shared tree is read-only —
// which is also why trees with unresolved remote cells (fetches mutate the
// cell table) must be traversed with a single worker.
package traverse
