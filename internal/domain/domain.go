package domain

import (
	"twohot/internal/comm"
	"twohot/internal/keys"
	"twohot/internal/parsort"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

// Decomposition describes the key-space split among ranks.
type Decomposition struct {
	Box       vec.Box
	Curve     keys.Curve
	Splitters []uint64 // len NRanks-1, ascending
}

// Owner returns the rank owning the given key.
func (d *Decomposition) Owner(k uint64) int {
	return parsort.OwnerOf(k, d.Splitters)
}

// OwnerOfPosition returns the rank owning a position.
func (d *Decomposition) OwnerOfPosition(p vec.V3) int {
	return d.Owner(uint64(keys.FromPosition(p, d.Box, d.Curve)))
}

// samplesPerRank is how many evenly spaced keys each rank contributes to the
// splitter sample.
const samplesPerRank = 64

// Options configures the decomposition.
type Options struct {
	Curve keys.Curve
	// UseWork weights the splits by the per-particle work recorded during
	// the previous force calculation (the paper's load-balancing strategy)
	// instead of plain particle counts.
	UseWork bool
}

// Decompose chooses splitters for the particles currently held by each rank
// and exchanges particles so that every rank ends up owning a contiguous key
// range.  The particles of each rank are left sorted by key.
func Decompose(r *comm.Rank, set *particle.Set, box vec.Box, opt Options) (*Decomposition, error) {
	ks := set.Keys(box, opt.Curve)
	var weights []float64
	if opt.UseWork {
		weights = set.Work
	}
	splitters, err := parsort.ChooseSplitters(r, ks, weights, samplesPerRank)
	if err != nil {
		return nil, err
	}
	d := &Decomposition{Box: box, Curve: opt.Curve, Splitters: splitters}
	if err := ExchangeParticles(r, set, d); err != nil {
		return nil, err
	}
	set.SortByKey(box, opt.Curve)
	return d, nil
}

// ExchangeParticles moves every particle to the rank that owns its key under
// the decomposition.  After the initial decomposition the exchange pattern is
// very sparse (particles only drift into neighboring domains), which the
// direct Alltoallv exploits by sending empty blocks cheaply.
func ExchangeParticles(r *comm.Rank, set *particle.Set, d *Decomposition) error {
	n := r.N()
	outgoing := make([][]int, n)
	ks := set.Keys(d.Box, d.Curve)
	for i, k := range ks {
		owner := d.Owner(k)
		if owner != r.ID {
			outgoing[owner] = append(outgoing[owner], i)
		}
	}
	send := make([][]byte, n)
	var toRemove []int
	for dst := 0; dst < n; dst++ {
		if len(outgoing[dst]) == 0 {
			send[dst] = nil
			continue
		}
		send[dst] = set.EncodeRange(outgoing[dst])
		toRemove = append(toRemove, outgoing[dst]...)
	}
	recv, err := r.AlltoallvBytes(send, comm.AlltoallDirect)
	if err != nil {
		return err
	}
	if len(toRemove) > 0 {
		set.Select(toRemove) // drop the particles we shipped away
	}
	for src := 0; src < n; src++ {
		if src == r.ID || len(recv[src]) == 0 {
			continue
		}
		if err := set.DecodeAppend(recv[src]); err != nil {
			return err
		}
	}
	return nil
}

// SplitWeighted chooses parts-1 split points over a sequence of per-item
// work weights so that the cumulative weight of each contiguous shard is as
// equal as a greedy quantile walk can make it.  It is the shared-memory twin
// of ChooseSplitters: where the distributed decomposition splits the
// space-filling curve among ranks by sampled key quantiles, this splits an
// already-ordered sequence (traversal tasks, particle ranges) among worker
// goroutines by exact weight quantiles.  The returned boundaries b satisfy
// 0 <= b[0] <= ... <= b[parts-2] <= len(weights); shard k is
// [b[k-1], b[k]) with b[-1] = 0 and b[parts-1] = len(weights).
// Non-positive weights are treated as zero.  The choice is deterministic.
func SplitWeighted(weights []float64, parts int) []int {
	if parts < 2 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	bounds := make([]int, parts-1)
	if total <= 0 {
		// Degenerate weights: fall back to equal item counts.
		for k := 1; k < parts; k++ {
			bounds[k-1] = k * len(weights) / parts
		}
		return bounds
	}
	cum := 0.0
	k := 1
	target := total * float64(k) / float64(parts)
	for i, w := range weights {
		if w > 0 {
			cum += w
		}
		for k < parts && cum >= target {
			// Place the boundary after item i: the shard ending here is the
			// first whose weight reaches its quantile.
			bounds[k-1] = i + 1
			k++
			target = total * float64(k) / float64(parts)
		}
	}
	for ; k < parts; k++ {
		bounds[k-1] = len(weights)
	}
	return bounds
}

// MaskWeights writes into dst the weights of the active items, zero for the
// rest, and returns the destination (grown when dst is too small, so callers
// can pool it).  It adapts SplitWeighted's inputs to partially-active solves:
// a block-timestep substep only computes forces for the sink groups holding
// active particles, so the carried per-particle work of everything else must
// not attract shard boundaries — a shard full of inactive particles predicts
// zero cost, and the quantile walk then spends the workers on the work that
// actually runs.  Like the weights themselves, the mask steers only the
// schedule, never a result bit.
func MaskWeights(dst, weights []float64, active []bool) []float64 {
	if cap(dst) < len(weights) {
		dst = make([]float64, len(weights))
	}
	dst = dst[:len(weights)]
	for i, w := range weights {
		if active[i] {
			dst[i] = w
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// ShardImbalance returns the max/mean shard weight of a SplitWeighted
// partition (1.0 is perfect balance), the rebalance-quality metric reported
// by the stepping benchmark.
func ShardImbalance(weights []float64, bounds []int) float64 {
	parts := len(bounds) + 1
	if parts < 2 || len(weights) == 0 {
		return 1
	}
	maxW, total := 0.0, 0.0
	lo := 0
	for k := 0; k < parts; k++ {
		hi := len(weights)
		if k < len(bounds) {
			hi = bounds[k]
		}
		w := 0.0
		for i := lo; i < hi; i++ {
			if weights[i] > 0 {
				w += weights[i]
			}
		}
		if w > maxW {
			maxW = w
		}
		total += w
		lo = hi
	}
	if total == 0 {
		return 1
	}
	return maxW / (total / float64(parts))
}

// Imbalance returns the ratio of the largest to the mean particle count
// across ranks (1.0 is perfect balance).
func Imbalance(r *comm.Rank, localCount int) (float64, error) {
	maxC, err := r.AllreduceFloat64(float64(localCount), "max")
	if err != nil {
		return 0, err
	}
	sum, err := r.AllreduceFloat64(float64(localCount), "sum")
	if err != nil {
		return 0, err
	}
	mean := sum / float64(r.N())
	if mean == 0 {
		return 1, nil
	}
	return maxC / mean, nil
}
