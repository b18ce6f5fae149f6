package parsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"twohot/internal/comm"
)

func TestAmericanFlagSortMatchesStdSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		keys := make([]uint64, n)
		perm := make([]int32, n)
		for i := range keys {
			keys[i] = rng.Uint64()
			perm[i] = int32(i)
		}
		orig := append([]uint64(nil), keys...)
		AmericanFlagSort(keys, perm)
		if !IsSorted(keys) {
			return false
		}
		// The permutation must carry the original keys along.
		for i := range keys {
			if orig[perm[i]] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAmericanFlagSortDuplicatesAndSmall(t *testing.T) {
	keys := []uint64{5, 5, 5, 1, 1, 9}
	AmericanFlagSort(keys, nil)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("duplicates not sorted")
	}
	empty := []uint64{}
	AmericanFlagSort(empty, nil)
	one := []uint64{42}
	AmericanFlagSort(one, nil)
}

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
		splitters, err := ChooseSplitters(r, keys, nil, 64)
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
