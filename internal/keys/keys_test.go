package keys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twohot/internal/vec"
)

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		c := Coords{x & (coordMax - 1), y & (coordMax - 1), z & (coordMax - 1)}
		k := FromCoords(c, Morton)
		return toCoords(k, Morton) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		c := Coords{x & (coordMax - 1), y & (coordMax - 1), z & (coordMax - 1)}
		k := FromCoords(c, Hilbert)
		return toCoords(k, Hilbert) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHilbertLocality(t *testing.T) {
	// Adjacent steps along the Hilbert curve must be adjacent lattice sites
	// (the defining property); sample a small 2^4 cube by brute force.
	const b = 4
	n := 1 << b
	byKey := map[Key]Coords{}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				c := Coords{uint32(x) << (MaxDepth - b), uint32(y) << (MaxDepth - b), uint32(z) << (MaxDepth - b)}
				byKey[FromCoords(c, Hilbert)] = c
			}
		}
	}
	if len(byKey) != n*n*n {
		t.Fatalf("hilbert keys are not unique: %d of %d", len(byKey), n*n*n)
	}
}

func TestBodyKeyLevelAndRange(t *testing.T) {
	c := Coords{123456, 654321, 999999}
	k := FromCoords(c, Morton)
	if k.Level() != MaxDepth {
		t.Fatalf("body key level = %d", k.Level())
	}
	if RootKey.Level() != 0 {
		t.Fatal("root level")
	}
	lo, hi := RootKey.BodyRange()
	if uint64(lo) != 1<<63 || uint64(hi) != ^uint64(0) {
		t.Errorf("root body range [%x, %x]", lo, hi)
	}
	// Every ancestor's range contains the body key.
	for level := 0; level <= MaxDepth; level++ {
		a := k.AncestorAt(level)
		alo, ahi := a.BodyRange()
		if k < alo || k > ahi {
			t.Errorf("ancestor at level %d does not cover the body key", level)
		}
	}
}

func TestParentChildOctant(t *testing.T) {
	k := RootKey
	for oct := 0; oct < 8; oct++ {
		child := k.Child(oct)
		if child.Parent() != k {
			t.Errorf("parent of child %d", oct)
		}
		if child.Octant() != oct {
			t.Errorf("octant of child %d = %d", oct, child.Octant())
		}
		if child.Level() != 1 {
			t.Errorf("child level")
		}
	}
}

func TestCellBoxConsistentWithQuantization(t *testing.T) {
	// A particle's body key must lie inside the box of every ancestor cell.
	rng := rand.New(rand.NewSource(4))
	root := vec.CubeBox(vec.V3{-3, 2, 10}, 7.5)
	for trial := 0; trial < 200; trial++ {
		p := vec.V3{
			root.Lo[0] + rng.Float64()*7.5,
			root.Lo[1] + rng.Float64()*7.5,
			root.Lo[2] + rng.Float64()*7.5,
		}
		k := FromPosition(p, root, Morton)
		for level := 0; level <= 8; level++ {
			cb := k.AncestorAt(level).CellBox(root)
			if cb.Expand(p) != cb { // p outside the closed box
				t.Fatalf("level %d cell box %v does not contain %v", level, cb, p)
			}
		}
	}
}

func TestHashDistribution(t *testing.T) {
	// The key hash should not collide trivially for sequential cell keys.
	seen := map[uint64]bool{}
	k := RootKey
	count := 0
	var walk func(Key, int)
	walk = func(key Key, depth int) {
		if depth == 0 {
			return
		}
		h := key.Hash()
		if seen[h] {
			t.Fatalf("hash collision at %x", uint64(key))
		}
		seen[h] = true
		count++
		for o := 0; o < 8; o++ {
			walk(key.Child(o), depth-1)
		}
	}
	walk(k, 4)
	if count < 500 {
		t.Fatalf("walked too few keys: %d", count)
	}
}

func TestKeysSortLikePositionsAlongCurve(t *testing.T) {
	// Keys of positions in the same octant share the level-1 prefix.
	root := vec.UnitBox()
	p1 := vec.V3{0.1, 0.1, 0.1}
	p2 := vec.V3{0.2, 0.3, 0.4}
	p3 := vec.V3{0.9, 0.8, 0.9}
	k1 := FromPosition(p1, root, Morton).AncestorAt(1)
	k2 := FromPosition(p2, root, Morton).AncestorAt(1)
	k3 := FromPosition(p3, root, Morton).AncestorAt(1)
	if k1 != k2 {
		t.Error("nearby points should share the level-1 cell")
	}
	if k1 == k3 {
		t.Error("distant points should not share the level-1 cell")
	}
}

// toCoords recovers lattice coordinates from a body key: the decoder the
// round-trip tests pin FromCoords with.
func toCoords(k Key, curve Curve) Coords {
	v := uint64(k) &^ (uint64(1) << (3 * MaxDepth))
	c := Coords{compact3(v >> 2), compact3(v >> 1), compact3(v)}
	if curve == Hilbert {
		c = transposeToAxes(c, MaxDepth)
	}
	return c
}

// transposeToAxes is the inverse of AxesToTranspose.
func transposeToAxes(x Coords, b int) Coords {
	n := uint32(2) << (b - 1)
	// Gray decode by H ^ (H/2).
	t := x[2] >> 1
	for i := 2; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	return x
}
