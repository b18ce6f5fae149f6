// Package keys implements the space-filling-curve key machinery at the heart
// of the hashed oct-tree (HOT) method of Warren & Salmon.  Particle positions
// are mapped to 63-bit keys by bit interleaving (Morton order) or by the
// Hilbert curve; cell keys are prefixes of body keys with a leading
// placeholder bit, so that the parent of a cell key is obtained by a 3-bit
// right shift.  The keys serve three purposes, exactly as in the paper:
//
//  1. they define the domain decomposition (a parallel sort of keys),
//  2. they name cells in the hashed oct-tree (the hash-table key),
//  3. they order particles for memory-hierarchy friendly updates.
package keys

import (
	"math/bits"

	"twohot/internal/vec"
)

// Key is a hashed oct-tree key: a placeholder bit followed by up to
// 3*MaxDepth interleaved coordinate bits.
type Key uint64

// MaxDepth is the number of key bits per dimension (21 bits x 3 dims + 1
// placeholder bit = 64 bits), matching the HOT layout.
const MaxDepth = 21

// RootKey is the key of the root cell (the placeholder bit alone).
const RootKey Key = 1

// InvalidKey is a sentinel that is never a valid key (no placeholder bit).
const InvalidKey Key = 0

// coordMax is the number of cells per dimension at the deepest level.
const coordMax = 1 << MaxDepth

// Curve selects the space-filling curve used for domain decomposition.
type Curve int

const (
	// Morton interleaves coordinate bits directly (Z-order).
	Morton Curve = iota
	// Hilbert applies the Hilbert transformation before interleaving,
	// which improves domain compactness.
	Hilbert
)

func (c Curve) String() string {
	switch c {
	case Morton:
		return "morton"
	case Hilbert:
		return "hilbert"
	default:
		return "unknown"
	}
}

// Coords are integer lattice coordinates at the deepest level, in [0, 2^21).
type Coords [3]uint32

// Quantize maps a position inside box to lattice coordinates.  Positions on
// the upper boundary are clamped into the box.
func Quantize(p vec.V3, box vec.Box) Coords {
	var c Coords
	size := box.Size()
	for i := 0; i < 3; i++ {
		f := (p[i] - box.Lo[i]) / size[i]
		if f < 0 {
			f = 0
		}
		v := int64(f * coordMax)
		if v >= coordMax {
			v = coordMax - 1
		}
		if v < 0 {
			v = 0
		}
		c[i] = uint32(v)
	}
	return c
}

// spread3 spreads the low 21 bits of x so that there are two zero bits
// between each original bit.
func spread3(x uint32) uint64 {
	v := uint64(x) & 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact3 is the inverse of spread3.
func compact3(v uint64) uint32 {
	v &= 0x1249249249249249
	v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3
	v = (v ^ (v >> 4)) & 0x100f00f00f00f00f
	v = (v ^ (v >> 8)) & 0x1f0000ff0000ff
	v = (v ^ (v >> 16)) & 0x1f00000000ffff
	v = (v ^ (v >> 32)) & 0x1fffff
	return uint32(v)
}

// FromCoords builds a body key (deepest level) from lattice coordinates using
// the given curve.
func FromCoords(c Coords, curve Curve) Key {
	if curve == Hilbert {
		c = AxesToTranspose(c, MaxDepth)
	}
	k := spread3(c[0])<<2 | spread3(c[1])<<1 | spread3(c[2])
	return Key(k) | Key(1)<<(3*MaxDepth)
}

// FromPosition maps a position inside box to a body key.
func FromPosition(p vec.V3, box vec.Box, curve Curve) Key {
	return FromCoords(Quantize(p, box), curve)
}

// Level returns the tree level of a cell key: 0 for the root, MaxDepth for a
// body key.
func (k Key) Level() int {
	if k == 0 {
		return -1
	}
	return (63 - bits.LeadingZeros64(uint64(k))) / 3
}

// Parent returns the key of the parent cell.
func (k Key) Parent() Key { return k >> 3 }

// Child returns the key of child octant o (0..7).
func (k Key) Child(o int) Key { return k<<3 | Key(o&7) }

// Octant returns which child of its parent this key is.
func (k Key) Octant() int { return int(k & 7) }

// AncestorAt returns the ancestor of k at the given level.  It panics if
// level exceeds the key's own level.
func (k Key) AncestorAt(level int) Key {
	l := k.Level()
	if level > l {
		panic("keys: AncestorAt level deeper than key")
	}
	return k >> uint(3*(l-level))
}

// BodyRange returns the closed range [lo, hi] of body keys covered by cell
// key k.  (An inclusive upper bound avoids overflowing the 64-bit key space
// for the root cell's last octant.)
func (k Key) BodyRange() (lo, hi Key) {
	shift := uint(3 * (MaxDepth - k.Level()))
	lo = k << shift
	hi = lo + (Key(1)<<shift - 1)
	return lo, hi
}

// CellBox returns the spatial region of cell key k inside the root box,
// assuming Morton ordering of the cell hierarchy.  (The Hilbert curve is only
// used for ordering bodies in the domain decomposition; the oct-tree cells
// themselves are always the regular octant hierarchy.)
func (k Key) CellBox(root vec.Box) vec.Box {
	level := k.Level()
	v := uint64(k) &^ (uint64(1) << (3 * level))
	cx := uint32(compact3(v >> 2))
	cy := uint32(compact3(v >> 1))
	cz := uint32(compact3(v))
	n := float64(uint64(1) << uint(level))
	size := root.Size()
	lo := vec.V3{
		root.Lo[0] + float64(cx)/n*size[0],
		root.Lo[1] + float64(cy)/n*size[1],
		root.Lo[2] + float64(cz)/n*size[2],
	}
	hi := vec.V3{
		lo[0] + size[0]/n,
		lo[1] + size[1]/n,
		lo[2] + size[2]/n,
	}
	return vec.Box{Lo: lo, Hi: hi}
}

// Hash mixes a key into a 64-bit hash value (splitmix64 finalizer).  The
// hashed oct-tree uses this to index its open-addressing cell table.
func (k Key) Hash() uint64 {
	z := uint64(k)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// AxesToTranspose converts lattice coordinates into the "transpose" form of
// the Hilbert index (Skilling 2004).  b is the number of bits per dimension.
func AxesToTranspose(x Coords, b int) Coords {
	m := uint32(1) << (b - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		x[i] ^= t
	}
	return x
}
