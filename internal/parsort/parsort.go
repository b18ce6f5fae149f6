package parsort

import (
	"fmt"
	"math"
	"sort"

	"twohot/internal/comm"
)

// samplesPerRank is how many evenly spaced keys each rank contributes to the
// splitter sample.
const samplesPerRank = 64

// ChooseSplitters performs the sampling phase of the distributed sample sort:
// every rank contributes a weighted sample of its keys, the concatenated
// sample is sorted, and nRanks-1 splitter keys are chosen so that the
// cumulative weight between consecutive splitters is approximately equal.
func ChooseSplitters(r *comm.Rank, keys []uint64, weights []float64) ([]uint64, error) {
	n := len(keys)
	type kw struct {
		k uint64
		w float64
	}
	// Evenly spaced local sample (keys need not be sorted; sampling evenly
	// spaced indices of an unsorted array still samples the distribution).
	local := make([]uint64, 0, samplesPerRank)
	for s := 0; s < samplesPerRank && n > 0; s++ {
		idx := s * n / samplesPerRank
		local = append(local, keys[idx])
	}
	all, err := r.AllgatherUint64(local)
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// Weight-balanced choice: the local weight below each candidate and in
	// total, summed across ranks, then candidates picked at the weight
	// quantiles.
	totalLocal := 0.0
	if weights == nil {
		totalLocal = float64(n)
	} else {
		for _, w := range weights {
			totalLocal += w
		}
	}
	sortedLocal := make([]kw, n)
	for i := range keys {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sortedLocal[i] = kw{keys[i], w}
	}
	sort.Slice(sortedLocal, func(i, j int) bool { return sortedLocal[i].k < sortedLocal[j].k })
	cum := make([]float64, n+1)
	for i, e := range sortedLocal {
		cum[i+1] = cum[i] + e.w
	}

	// One allgather carries every rank's weight below each distinct candidate
	// (the candidate list is identical on every rank) and its total, as
	// float64 bits.  The parts are summed in rank order, the order
	// AllreduceFloat64 sums in.
	candidates := dedup(all)
	m := len(candidates) + 1
	below := make([]uint64, 0, m)
	for _, cand := range candidates {
		lo := sort.Search(n, func(i int) bool { return sortedLocal[i].k >= cand })
		below = append(below, math.Float64bits(cum[lo]))
	}
	below = append(below, math.Float64bits(totalLocal))
	parts, err := r.AllgatherUint64(below)
	if err != nil {
		return nil, err
	}
	if len(parts) != m*r.N() {
		return nil, fmt.Errorf("parsort: %d candidate weights from %d ranks, want %d each", len(parts), r.N(), m)
	}
	global := make([]float64, m)
	for i := range global {
		global[i] = math.Float64frombits(parts[i])
		for src := 1; src < r.N(); src++ {
			global[i] += math.Float64frombits(parts[src*m+i])
		}
	}
	globalBelow, totalWeight := global[:m-1], global[m-1]

	nr := r.N()
	splitters := make([]uint64, 0, nr-1)
	for s := 1; s < nr; s++ {
		target := totalWeight * float64(s) / float64(nr)
		best := candidates[0]
		bestDiff := -1.0
		for i, cand := range candidates {
			diff := globalBelow[i] - target
			if diff < 0 {
				diff = -diff
			}
			if bestDiff < 0 || diff < bestDiff {
				bestDiff = diff
				best = cand
			}
		}
		splitters = append(splitters, best)
	}
	sort.Slice(splitters, func(i, j int) bool { return splitters[i] < splitters[j] })
	return splitters, nil
}

func dedup(sorted []uint64) []uint64 {
	out := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// OwnerOf returns the rank owning a key given the nRanks-1 sorted splitters:
// rank i owns keys in [splitters[i-1], splitters[i]).
func OwnerOf(key uint64, splitters []uint64) int {
	return sort.Search(len(splitters), func(i int) bool { return key < splitters[i] })
}
