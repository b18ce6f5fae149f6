package parsort

import (
	"sort"

	"twohot/internal/comm"
)

// AmericanFlagSort sorts keys in place (ascending) using the in-place MSD
// radix sort of McIlroy, Bostic & McIlroy that the paper uses for the on-node
// portion of the decomposition sort.  perm, if non-nil, must have the same
// length and is permuted alongside the keys (carrying particle indices).
func AmericanFlagSort(keys []uint64, perm []int32) {
	if perm != nil && len(perm) != len(keys) {
		panic("parsort: perm length mismatch")
	}
	americanFlag(keys, perm, 56)
}

const afsCutoff = 32

func americanFlag(keys []uint64, perm []int32, shift int) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n <= afsCutoff || shift < 0 {
		insertionSort(keys, perm)
		return
	}
	var count [256]int
	for _, k := range keys {
		count[(k>>uint(shift))&0xff]++
	}
	var start, end [256]int
	sum := 0
	for b := 0; b < 256; b++ {
		start[b] = sum
		sum += count[b]
		end[b] = sum
	}
	// Permute in place ("flag" distribution).
	next := start
	for b := 0; b < 256; b++ {
		for next[b] < end[b] {
			i := next[b]
			kb := int((keys[i] >> uint(shift)) & 0xff)
			if kb == b {
				next[b]++
				continue
			}
			j := next[kb]
			keys[i], keys[j] = keys[j], keys[i]
			if perm != nil {
				perm[i], perm[j] = perm[j], perm[i]
			}
			next[kb]++
		}
	}
	// Recurse into buckets on the next byte.
	for b := 0; b < 256; b++ {
		lo, hi := start[b], end[b]
		if hi-lo > 1 {
			var p []int32
			if perm != nil {
				p = perm[lo:hi]
			}
			americanFlag(keys[lo:hi], p, shift-8)
		}
	}
}

func insertionSort(keys []uint64, perm []int32) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		var p int32
		if perm != nil {
			p = perm[i]
		}
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			if perm != nil {
				perm[j+1] = perm[j]
			}
			j--
		}
		keys[j+1] = k
		if perm != nil {
			perm[j+1] = p
		}
	}
}

// IsSorted reports whether keys are non-decreasing.
func IsSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// ChooseSplitters performs the sampling phase of the distributed sample sort:
// every rank contributes a weighted sample of its keys, the concatenated
// sample is sorted, and nRanks-1 splitter keys are chosen so that the
// cumulative weight between consecutive splitters is approximately equal.
func ChooseSplitters(r *comm.Rank, keys []uint64, weights []float64, samplesPerRank int) ([]uint64, error) {
	if samplesPerRank < 1 {
		samplesPerRank = 1
	}
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

	// Weight-balanced choice: compute local weight below each candidate,
	// reduce across ranks, then pick candidates at the weight quantiles.
	totalLocal := 0.0
	if weights == nil {
		totalLocal = float64(n)
	} else {
		for _, w := range weights {
			totalLocal += w
		}
	}
	totalWeight, err := r.AllreduceFloat64(totalLocal, "sum")
	if err != nil {
		return nil, err
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
	weightBelow := func(key uint64) float64 {
		lo := sort.Search(n, func(i int) bool { return sortedLocal[i].k >= key })
		return cum[lo]
	}

	// Global weight below each distinct candidate (one reduction per
	// candidate, identical candidate list on every rank).
	candidates := dedup(all)
	globalBelow := make([]float64, len(candidates))
	for i, cand := range candidates {
		gb, err := r.AllreduceFloat64(weightBelow(cand), "sum")
		if err != nil {
			return nil, err
		}
		globalBelow[i] = gb
	}

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
