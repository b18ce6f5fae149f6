package particle

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"twohot/internal/keys"
	"twohot/internal/vec"
)

func randomSet(n int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	for i := 0; i < n; i++ {
		s.Append(
			vec.V3{rng.Float64(), rng.Float64(), rng.Float64()},
			vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			1+rng.Float64(), int64(i))
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := randomSet(57, 1)
	idx := []int{3, 17, 44}
	for _, i := range idx {
		s.Work[i], s.MomEpoch[i] = float64(i)+0.5, 1/float64(i)
		s.Rung[i], s.Flags[i] = int8(-i), FlagActive|FlagMoved
		s.Acc[i], s.Pot[i] = vec.V3{1, 2, 3}, 4 // do not travel
	}
	blob := s.EncodeRange(idx)
	dst := New(0)
	if err := dst.DecodeAppend(blob); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("decoded %d particles", dst.Len())
	}
	for k, i := range idx {
		if dst.Pos[k] != s.Pos[i] || dst.Mom[k] != s.Mom[i] || dst.ID[k] != s.ID[i] || dst.Mass[k] != s.Mass[i] {
			t.Fatalf("particle %d corrupted in transit", i)
		}
		if dst.Work[k] != s.Work[i] || dst.MomEpoch[k] != s.MomEpoch[i] || dst.Rung[k] != s.Rung[i] || dst.Flags[k] != s.Flags[i] {
			t.Fatalf("particle %d lost its stepping state in transit", i)
		}
		if dst.Acc[k] != (vec.V3{}) || dst.Pot[k] != 0 {
			t.Fatalf("particle %d arrived with a force result", i)
		}
	}
	if len(blob) != len(idx)*82 {
		t.Fatalf("%d particles encode to %d bytes, want 82 each", len(idx), len(blob))
	}
	if err := dst.DecodeAppend([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for truncated record")
	}
}

func TestSortByKeyOrdersAlongCurve(t *testing.T) {
	s := randomSet(500, 2)
	box := vec.CubeBox(vec.V3{}, 1)
	ks := s.SortByKey(box, keys.Morton)
	if !slices.IsSorted(ks) {
		t.Fatal("keys not sorted")
	}
	// Sorted keys must correspond to the (reordered) positions.
	for i := range ks {
		if uint64(keys.FromPosition(s.Pos[i], box, keys.Morton)) != ks[i] {
			t.Fatalf("key %d does not match its particle", i)
		}
	}
	// IDs are a permutation of 0..n-1.
	seen := map[int64]bool{}
	for _, id := range s.ID {
		if seen[id] {
			t.Fatal("duplicate ID after sort")
		}
		seen[id] = true
	}
}

func TestSelectRemovesAndReturns(t *testing.T) {
	s := randomSet(20, 3)
	total := s.TotalMass()
	sel := s.Select([]int{0, 5, 19})
	if sel.Len() != 3 || s.Len() != 17 {
		t.Fatalf("select sizes: %d, %d", sel.Len(), s.Len())
	}
	if diff := total - s.TotalMass() - sel.TotalMass(); diff > 1e-12 || diff < -1e-12 {
		t.Error("mass not conserved by Select")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := randomSet(5, 4)
	c := s.Clone()
	c.Pos[0][0] = 999
	if s.Pos[0][0] == 999 {
		t.Error("Clone shares storage with the original")
	}
}

// TestChunksPartitionTheSet pins the canonical rank layout: for any load and
// rank count — including counts that leave the trailing ranks short or empty,
// where a bare rank*ceil(total/n) runs past the end — the chunks are
// contiguous, in order, and cover every particle exactly once.
func TestChunksPartitionTheSet(t *testing.T) {
	for _, total := range []int{0, 1, 5, 11, 96} {
		s := randomSet(total, 7)
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			next := 0
			for rank := 0; rank < n; rank++ {
				lo, hi := ChunkBounds(total, rank, n)
				if lo != next || hi < lo || hi > total {
					t.Fatalf("total=%d n=%d rank=%d: bounds [%d,%d) after %d", total, n, rank, lo, hi, next)
				}
				c := s.Chunk(rank, n)
				if c.Len() != hi-lo {
					t.Fatalf("total=%d n=%d rank=%d: chunk has %d particles, bounds say %d", total, n, rank, c.Len(), hi-lo)
				}
				for i := 0; i < c.Len(); i++ {
					if c.ID[i] != s.ID[lo+i] {
						t.Fatalf("total=%d n=%d rank=%d: chunk particle %d is not set particle %d", total, n, rank, i, lo+i)
					}
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d n=%d: chunks cover %d particles", total, n, next)
			}
		}
	}
}

func TestSetActiveTouchesOnlyTheActiveBit(t *testing.T) {
	s := randomSet(4, 8)
	s.Flags[0] = FlagActive | FlagMoved
	s.Flags[1] = FlagMoved
	s.SetActive([]bool{false, true, true, false})
	want := []uint8{FlagMoved, FlagActive | FlagMoved, FlagActive, 0}
	for i, w := range want {
		if s.Flags[i] != w {
			t.Errorf("particle %d: flags %02b, want %02b", i, s.Flags[i], w)
		}
	}
}

// FuzzDecodeAppend asserts the particle-record parser never panics: input
// that is not whole records is rejected, anything else re-encodes to itself.
func FuzzDecodeAppend(f *testing.F) {
	valid := randomSet(4, 3).EncodeRange([]int{0, 1, 2, 3})
	f.Add(valid)
	f.Add(valid[:100])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(0)
		if err := s.DecodeAppend(data); err != nil {
			if len(data)%82 == 0 {
				t.Fatalf("whole records rejected: %v", err)
			}
			return
		}
		idx := make([]int, s.Len())
		for i := range idx {
			idx[i] = i
		}
		if !bytes.Equal(s.EncodeRange(idx), data) {
			t.Fatal("decoded records re-encode differently")
		}
	})
}
