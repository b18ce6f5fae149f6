package parsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"twohot/internal/comm"
)

func TestOwnerOf(t *testing.T) {
	splitters := []uint64{100, 200, 300}
	cases := map[uint64]int{0: 0, 99: 0, 100: 1, 250: 2, 300: 3, 1000: 3}
	for k, want := range cases {
		if got := OwnerOf(k, splitters); got != want {
			t.Errorf("OwnerOf(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestChooseSplittersBalances(t *testing.T) {
	const nRanks = 4
	const perRank = 2000
	w := comm.NewWorld(nRanks)
	counts := make([][]int, nRanks)
	err := w.Run(func(r *comm.Rank) error {
		rng := rand.New(rand.NewSource(int64(r.ID) + 1))
		keys := make([]uint64, perRank)
		for i := range keys {
			keys[i] = uint64(rng.Int63())
		}
		splitters, err := ChooseSplitters(r, keys, nil)
		if err != nil {
			return err
		}
		// Count how many local keys fall in each owner range; accumulate.
		c := make([]int, nRanks)
		for _, k := range keys {
			c[OwnerOf(k, splitters)]++
		}
		counts[r.ID] = c
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := make([]int, nRanks)
	for _, c := range counts {
		for i, v := range c {
			total[i] += v
		}
	}
	mean := float64(nRanks*perRank) / nRanks
	for i, v := range total {
		if float64(v) < 0.5*mean || float64(v) > 1.5*mean {
			t.Errorf("rank %d would own %d keys (mean %g): imbalanced splitters", i, v, mean)
		}
	}
}

// chooseSplittersReference is ChooseSplitters with one AllreduceFloat64 per
// distinct candidate and one for the total weight: the collective schedule
// the single allgather replaced, kept as the oracle it is pinned to.
func chooseSplittersReference(r *comm.Rank, keys []uint64, weights []float64) ([]uint64, error) {
	n := len(keys)
	type kw struct {
		k uint64
		w float64
	}
	local := make([]uint64, 0, samplesPerRank)
	for s := 0; s < samplesPerRank && n > 0; s++ {
		local = append(local, keys[s*n/samplesPerRank])
	}
	all, err := r.AllgatherUint64(local)
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
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
	candidates := dedup(all)
	globalBelow := make([]float64, len(candidates))
	for i, cand := range candidates {
		lo := sort.Search(n, func(j int) bool { return sortedLocal[j].k >= cand })
		if globalBelow[i], err = r.AllreduceFloat64(cum[lo], "sum"); err != nil {
			return nil, err
		}
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

// TestChooseSplittersMatchesReference pins the one-allgather weight sums to
// the per-candidate allreduce schedule bit for bit: same splitters on every
// rank, for 2, 3 and 4 ranks, with and without per-key weights.  Rank sizes
// differ and keys repeat, so candidates tie and ranks hold unequal samples.
func TestChooseSplittersMatchesReference(t *testing.T) {
	for _, nRanks := range []int{2, 3, 4} {
		for _, weighted := range []bool{false, true} {
			got := make([][]uint64, nRanks)
			want := make([][]uint64, nRanks)
			err := comm.NewWorld(nRanks).Run(func(r *comm.Rank) error {
				rng := rand.New(rand.NewSource(int64(10*nRanks + r.ID)))
				keys := make([]uint64, 500+300*r.ID)
				var weights []float64
				if weighted {
					weights = make([]float64, len(keys))
				}
				for i := range keys {
					keys[i] = uint64(rng.Intn(4000)) << 40
					if weighted {
						weights[i] = 0.1 + 10*rng.Float64()*rng.Float64()
					}
				}
				var err error
				if got[r.ID], err = ChooseSplitters(r, keys, weights); err != nil {
					return err
				}
				want[r.ID], err = chooseSplittersReference(r, keys, weights)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for id := range got {
				if !slices.Equal(got[id], want[id]) || !slices.Equal(got[id], got[0]) {
					t.Errorf("ranks=%d weighted=%v rank %d: splitters %x, reference %x (rank 0: %x)",
						nRanks, weighted, id, got[id], want[id], got[0])
				}
			}
		}
	}
}
