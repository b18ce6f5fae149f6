package parsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// kvShapes generates the input distributions the record sort must handle:
// uniform random keys, heavily duplicated keys (only a handful of distinct
// values), all-equal keys, already-sorted and reverse-sorted input.
func kvShapes(n int, rng *rand.Rand) map[string][]KV {
	mk := func(key func(i int) uint64) []KV {
		recs := make([]KV, n)
		for i := range recs {
			recs[i] = KV{Key: key(i), Idx: int32(i)}
		}
		return recs
	}
	shapes := map[string][]KV{
		"random":     mk(func(int) uint64 { return rng.Uint64() }),
		"duplicates": mk(func(int) uint64 { return uint64(rng.Intn(5)) * 0x0123456789abcdef }),
		"all-equal":  mk(func(int) uint64 { return 0xdeadbeefcafe }),
	}
	sorted := mk(func(int) uint64 { return rng.Uint64() })
	sort.Slice(sorted, func(i, j int) bool { return kvLess(sorted[i], sorted[j]) })
	// Re-index so Idx is again the record's position (sorted input with
	// in-order indices, the common already-decomposed case).
	for i := range sorted {
		sorted[i].Idx = int32(i)
	}
	shapes["sorted"] = sorted

	reversed := make([]KV, n)
	for i := range reversed {
		reversed[i] = sorted[n-1-i]
		reversed[i].Idx = int32(i)
	}
	shapes["reversed"] = reversed
	return shapes
}

func TestSortKVMatchesReferenceAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Sizes straddle the insertion cutoff, the parallel cutoff, and odd
	// non-power-of-two lengths.
	sizes := []int{0, 1, 7, 100, 4097, 20000}
	if testing.Short() {
		sizes = []int{0, 1, 7, 100, 9000}
	}
	for _, n := range sizes {
		for name, input := range kvShapes(n, rng) {
			ref := append([]KV(nil), input...)
			sort.Slice(ref, func(i, j int) bool { return kvLess(ref[i], ref[j]) })
			for _, workers := range []int{1, 2, 3, 8} {
				got := append([]KV(nil), input...)
				SortKV(got, workers)
				if !kvIsSorted(got) {
					t.Fatalf("n=%d %s workers=%d: output not sorted", n, name, workers)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("n=%d %s workers=%d: record %d = %+v, want %+v",
							n, name, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestSortKVQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12000)
		// Small key cardinality forces long tie runs resolved by Idx.
		card := 1 + rng.Intn(50)
		recs := make([]KV, n)
		for i := range recs {
			recs[i] = KV{Key: uint64(rng.Intn(card)) << uint(rng.Intn(40)), Idx: int32(i)}
		}
		ref := append([]KV(nil), recs...)
		sort.Slice(ref, func(i, j int) bool { return kvLess(ref[i], ref[j]) })
		SortKV(recs, 1+rng.Intn(8))
		for i := range ref {
			if recs[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// kvIsSorted reports whether recs are in (Key, Idx) order.
func kvIsSorted(recs []KV) bool {
	return slices.IsSortedFunc(recs, func(a, b KV) int {
		if kvLess(a, b) {
			return -1
		}
		if kvLess(b, a) {
			return 1
		}
		return 0
	})
}
