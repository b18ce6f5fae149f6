// Package parsort implements the sorting machinery behind the space-filling
// curve domain decomposition (Section 3.1 of the paper) and the incremental
// stepping pipeline built on top of it.
//
// # Contract
//
// Two layers:
//
//   - SortKV / SortKVAdaptive: a worker-parallel sort of packed (key, index)
//     records — the tree build's sort stage, finishing each bucket with an
//     in-place MSD radix sort (McIlroy, Bostic & McIlroy's American flag
//     sort).  The order is total: ties on the key are broken by the original
//     index, so the sorted sequence is a pure function of the multiset of
//     records, never of scheduling.
//     SortKVAdaptive additionally detects a near-sorted input (the previous
//     step's order re-keyed) and merges the displaced records into the
//     sorted spine instead of re-running the radix passes; its Stats report
//     whether the fast path ran and how many records had moved.
//   - ChooseSplitters / OwnerOf: the distributed sample sort over the comm
//     runtime, picking processor-domain splitter keys (optionally weighted
//     by per-particle work) and routing keys to owning ranks.  The weights
//     below every candidate splitter cross ranks in one allgather and are
//     summed in rank order on every rank.
//
// # Bit-identity invariants
//
// Because the record order is total, every consumer — the hashed oct-tree
// build above all — produces bit-identical results regardless of the worker
// count, of whether the adaptive fast path or the full radix sort ran, and
// of how stale the "previous order" hint was.  The property tests in this
// package pin SortKV against the serial reference sort and SortKVAdaptive
// against SortKV for arbitrary displacement fractions.
//
// # Concurrency model
//
// Sort calls partition their input into disjoint ranges per worker and join
// before returning; the API is synchronous and the slices are owned by the
// caller.  Individual sorts must not be invoked concurrently on overlapping
// slices.  ChooseSplitters participates in collective communication and
// must be called by every rank of the communicator, like any collective.
package parsort
