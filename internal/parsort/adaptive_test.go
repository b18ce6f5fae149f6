package parsort

import (
	"math/rand"
	"testing"
)

// adaptiveInput builds a near-sorted record array: a sorted base with a
// fraction of the records swapped forward by up to maxJump slots.  Small
// jumps model near-static drift (each swap displaces about one record from
// the greedy spine); large jumps displace the whole skipped run, modelling
// heavier mixing.
func adaptiveInput(n int, frac float64, maxJump int, seed int64) []KV {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Key: uint64(i) * 7, Idx: int32(i)}
	}
	moved := int(frac * float64(n))
	for m := 0; m < moved; m++ {
		i := rng.Intn(n)
		j := i + 1 + rng.Intn(maxJump)
		if j >= n {
			j = n - 1
		}
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// sortKVRefEqual asserts recs match a SortKV-sorted copy of want exactly.
func sortKVRefEqual(t *testing.T, label string, got, want []KV) {
	t.Helper()
	ref := append([]KV(nil), want...)
	SortKV(ref, 1)
	if len(got) != len(ref) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: record %d differs: %+v vs %+v", label, i, got[i], ref[i])
		}
	}
}

func TestSortKVAdaptiveMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		make     func() []KV
		fastPath bool // expected path (informational assertions below)
	}{
		{"sorted", func() []KV { return adaptiveInput(5000, 0, 2, 1) }, true},
		{"near-sorted-1pct", func() []KV { return adaptiveInput(5000, 0.01, 2, 2) }, true},
		{"near-sorted-3pct", func() []KV { return adaptiveInput(5000, 0.03, 2, 3) }, true},
		{"disordered-20pct", func() []KV { return adaptiveInput(5000, 0.2, 16, 8) }, false},
		{"random", func() []KV {
			rng := rand.New(rand.NewSource(4))
			recs := make([]KV, 5000)
			for i := range recs {
				recs[i] = KV{Key: rng.Uint64(), Idx: int32(i)}
			}
			return recs
		}, false},
		{"reversed", func() []KV {
			recs := make([]KV, 5000)
			for i := range recs {
				recs[i] = KV{Key: uint64(5000 - i), Idx: int32(i)}
			}
			return recs
		}, false},
		{"rogue-head", func() []KV {
			// One huge element first: the greedy spine would displace every
			// later record, so the fast path must abort cleanly.
			recs := adaptiveInput(5000, 0, 2, 5)
			recs[0].Key = ^uint64(0)
			return recs
		}, false},
		{"duplicate-keys", func() []KV {
			// Ties broken by Idx: near-sorted array of heavily duplicated
			// keys still has a unique sorted order.
			rng := rand.New(rand.NewSource(6))
			recs := make([]KV, 5000)
			for i := range recs {
				recs[i] = KV{Key: uint64(i / 50), Idx: int32(i)}
			}
			for m := 0; m < 100; m++ {
				i := rng.Intn(len(recs) - 1)
				recs[i], recs[i+1] = recs[i+1], recs[i]
			}
			return recs
		}, true},
		{"tiny", func() []KV { return []KV{{Key: 9, Idx: 0}, {Key: 3, Idx: 1}} }, true},
		{"empty", func() []KV { return nil }, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			in := tc.make()
			orig := append([]KV(nil), in...)
			st := SortKVAdaptive(in, workers)
			sortKVRefEqual(t, tc.name, in, orig)
			if len(orig) >= 100 && st.FastPath != tc.fastPath {
				t.Errorf("%s: FastPath = %v, want %v (displaced %d)", tc.name, st.FastPath, tc.fastPath, st.Displaced)
			}
			if tc.name == "sorted" && st.Displaced != 0 {
				t.Errorf("sorted input reported %d displaced records", st.Displaced)
			}
		}
	}
}

func TestSortKVAdaptiveQuickProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		frac := rng.Float64() * rng.Float64() // biased toward small disorder
		recs := adaptiveInput(n, frac, 1+rng.Intn(16), rng.Int63())
		orig := append([]KV(nil), recs...)
		SortKVAdaptive(recs, 1+rng.Intn(4))
		if !kvIsSorted(recs) {
			t.Fatalf("trial %d (n=%d frac=%.3f): output not sorted", trial, n, frac)
		}
		sortKVRefEqual(t, "quick", recs, orig)
	}
}
