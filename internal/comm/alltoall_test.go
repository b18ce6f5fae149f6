package comm

import (
	"fmt"
	"testing"
)

// The two Alltoallv schedules the paper compares with the direct one
// (Section 3.1).  Production exchanges run AlltoallDirect only; these stay as
// the paper's harness: TestAlltoallVariantsAgree and the TCP tests'
// tcpExercise check them against the direct schedule, and
// BenchmarkAlltoallVariants times all three.
const (
	// alltoallPairwiseAlgo loops over all pairs of processes exchanging
	// data, the "trivial implementation" that outperformed the system MPI
	// at 32k+ processes in the paper.
	alltoallPairwiseAlgo AlltoallAlgorithm = AlltoallDirect + 1 + iota
	// alltoallHierarchicalAlgo relays messages through one leader per node
	// group, the rewrite that fixed the buffer blow-up in OpenMPI.
	alltoallHierarchicalAlgo
)

// alltoallAlgos lists every schedule, direct first.
var alltoallAlgos = []AlltoallAlgorithm{AlltoallDirect, alltoallPairwiseAlgo, alltoallHierarchicalAlgo}

// alltoallv is AlltoallvBytes with any of the three schedules: the same
// collective count and sequence number, then the chosen message pattern.
func (r *Rank) alltoallv(send [][]byte, algo AlltoallAlgorithm) ([][]byte, error) {
	if algo == AlltoallDirect {
		return r.AlltoallvBytes(send, algo)
	}
	r.stats.countCollective(1, 0, 0)
	seq := r.nextSeq()
	if algo == alltoallPairwiseAlgo {
		return r.alltoallPairwise(seq, send)
	}
	return r.alltoallHierarchical(seq, send)
}

func (r *Rank) alltoallPairwise(seq int64, send [][]byte) ([][]byte, error) {
	n := r.N()
	recv := make([][]byte, n)
	recv[r.ID] = send[r.ID]
	// Loop over all pairs: at step s exchange with dst = (rank + s) mod n and
	// src = (rank - s) mod n; the step index keys the sub-channel.
	for s := 1; s < n; s++ {
		dst := (r.ID + s) % n
		src := (r.ID - s + n) % n
		tag := collTag(seq, s)
		if err := r.isend(dst, tag, send[dst]); err != nil {
			return nil, fmt.Errorf("alltoall pairwise step %d send: %w", s, err)
		}
		p, err := r.irecv(src, tag)
		if err != nil {
			return nil, fmt.Errorf("alltoall pairwise step %d recv: %w", s, err)
		}
		recv[src] = p
	}
	return recv, nil
}

// alltoallHierarchical relays all traffic through group leaders: ranks are
// grouped into "nodes" of size g; only leaders exchange inter-node traffic.
// Sub-channels: [0,n) member->leader uploads by destination, [n,2n)
// leader->leader bundles by sending leader, [2n,3n) leader->member
// deliveries by original source.  A bundle is the blocks from every source in
// the sending group to every destination in the receiving one as one
// appendBlocks payload, source-major; both leaders know the two groups, so
// the order alone says whose block is whose.
func (r *Rank) alltoallHierarchical(seq int64, send [][]byte) ([][]byte, error) {
	n := r.N()
	g := nodeGroupSize(n)
	leader := (r.ID / g) * g
	groupHi := min(leader+g, n)

	if r.ID != leader {
		// Send all outgoing blocks to the leader, then receive all incoming.
		for dst := 0; dst < n; dst++ {
			if err := r.isend(leader, collTag(seq, dst), send[dst]); err != nil {
				return nil, fmt.Errorf("alltoall hierarchical upload: %w", err)
			}
		}
		recv := make([][]byte, n)
		for src := 0; src < n; src++ {
			p, err := r.irecv(leader, collTag(seq, 2*n+src))
			if err != nil {
				return nil, fmt.Errorf("alltoall hierarchical delivery: %w", err)
			}
			recv[src] = p
		}
		return recv, nil
	}

	// Leader: gather the group's outgoing blocks, out[src-leader][dst].
	out := make([][][]byte, groupHi-leader)
	out[0] = send
	for m := leader + 1; m < groupHi; m++ {
		out[m-leader] = make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			p, err := r.irecv(m, collTag(seq, dst))
			if err != nil {
				return nil, fmt.Errorf("alltoall hierarchical gather from member %d: %w", m, err)
			}
			out[m-leader][dst] = p
		}
	}
	// Send every other leader its bundle.
	for other := 0; other < n; other += g {
		if other == leader {
			continue
		}
		var bundle [][]byte
		for _, blocks := range out {
			bundle = append(bundle, blocks[other:min(other+g, n)]...)
		}
		if err := r.isend(other, collTag(seq, n+leader), appendBlocks(nil, bundle)); err != nil {
			return nil, fmt.Errorf("alltoall hierarchical inter-leader send: %w", err)
		}
	}
	// Collect the group's incoming blocks, in[dst-leader][src]: intra-group
	// traffic directly, the rest from the other leaders' bundles.
	in := make([][][]byte, groupHi-leader)
	for d := range in {
		in[d] = make([][]byte, n)
		for src := leader; src < groupHi; src++ {
			in[d][src] = out[src-leader][leader+d]
		}
	}
	for other := 0; other < n; other += g {
		if other == leader {
			continue
		}
		otherHi := min(other+g, n)
		p, err := r.irecv(other, collTag(seq, n+other))
		if err != nil {
			return nil, fmt.Errorf("alltoall hierarchical inter-leader recv: %w", err)
		}
		bundle, err := parseBlocks(p)
		if err == nil && len(bundle) != (otherHi-other)*len(in) {
			err = fmt.Errorf("%d blocks for %d sources x %d destinations", len(bundle), otherHi-other, len(in))
		}
		if err != nil {
			return nil, fmt.Errorf("alltoall hierarchical bundle from leader %d: %w", other, err)
		}
		for src := other; src < otherHi; src++ {
			for d := range in {
				in[d][src] = bundle[0]
				bundle = bundle[1:]
			}
		}
	}
	// Deliver to members.
	for m := leader + 1; m < groupHi; m++ {
		for src := 0; src < n; src++ {
			if err := r.isend(m, collTag(seq, 2*n+src), in[m-leader][src]); err != nil {
				return nil, fmt.Errorf("alltoall hierarchical deliver to member %d: %w", m, err)
			}
		}
	}
	return in[0], nil
}

// nodeGroupSize picks the "node" size for the hierarchical relay.
func nodeGroupSize(n int) int {
	g := 1
	for g*g < n {
		g++
	}
	return g
}

// BenchmarkAlltoallVariants times the three schedules on an 8-rank in-process
// world with 16 KiB blocks (Section 3.1's Alltoall comparison).
func BenchmarkAlltoallVariants(b *testing.B) {
	payload := make([]byte, 16*1024)
	for _, tc := range []struct {
		name string
		algo AlltoallAlgorithm
	}{
		{"direct", AlltoallDirect},
		{"pairwise", alltoallPairwiseAlgo},
		{"hierarchical", alltoallHierarchicalAlgo},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ranks := 8
			w := NewWorld(ranks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := w.Run(func(r *Rank) error {
					send := make([][]byte, ranks)
					for d := range send {
						send[d] = payload
					}
					_, err := r.alltoallv(send, tc.algo)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(ranks * ranks * len(payload)))
		})
	}
}
