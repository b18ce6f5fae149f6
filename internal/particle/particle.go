// Package particle defines the particle storage shared by the force solvers,
// the domain decomposition and the I/O layer.  Storage is a structure of
// arrays, the layout the paper's m-by-n interaction blocking and SIMD
// swizzling assume.
package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"twohot/internal/keys"
	"twohot/internal/vec"
)

// Set is a structure-of-arrays particle container.
type Set struct {
	Pos  []vec.V3  // comoving positions [Mpc/h]
	Mom  []vec.V3  // canonical momenta a^2 dx/dt [Mpc/h km/s] (or plain velocities in non-cosmological runs)
	Mass []float64 // particle masses [1e10 Msun/h]
	ID   []int64   // unique particle identifiers
	Acc  []vec.V3  // last computed accelerations
	Pot  []float64 // last computed kernel sums (potential = -G * Pot)
	Work []float64 // per-particle work estimate from the previous step (interaction counts), used for load balancing

	// Block-timestep integrator state.  These travel with the particle
	// through every exchange (EncodeRange/DecodeAppend) so a distributed
	// block-stepping engine keeps per-particle rungs and momentum epochs
	// coherent across rank boundaries.  All zero for global stepping.
	Rung     []int8    // current timestep rung (0 = coarsest)
	MomEpoch []float64 // scale factor the momentum is synchronized to (0 = unset)
	Flags    []uint8   // activity bits, see FlagActive/FlagMoved
}

// Activity flag bits carried in Set.Flags.
const (
	FlagActive uint8 = 1 << iota // particle is a sink of the current substep's solve
	FlagMoved                    // particle drifted since the previous solve
)

// New allocates an empty set with capacity n.
func New(n int) *Set {
	return &Set{
		Pos:  make([]vec.V3, 0, n),
		Mom:  make([]vec.V3, 0, n),
		Mass: make([]float64, 0, n),
		ID:   make([]int64, 0, n),
		Acc:  make([]vec.V3, 0, n),
		Pot:  make([]float64, 0, n),
		Work: make([]float64, 0, n),

		Rung:     make([]int8, 0, n),
		MomEpoch: make([]float64, 0, n),
		Flags:    make([]uint8, 0, n),
	}
}

// Len returns the number of particles.
func (s *Set) Len() int { return len(s.Pos) }

// Append adds one particle.
func (s *Set) Append(pos, mom vec.V3, mass float64, id int64) {
	s.Pos = append(s.Pos, pos)
	s.Mom = append(s.Mom, mom)
	s.Mass = append(s.Mass, mass)
	s.ID = append(s.ID, id)
	s.Acc = append(s.Acc, vec.V3{})
	s.Pot = append(s.Pot, 0)
	s.Work = append(s.Work, 1)
	s.Rung = append(s.Rung, 0)
	s.MomEpoch = append(s.MomEpoch, 0)
	s.Flags = append(s.Flags, 0)
}

// AppendFrom copies particle i of src into s.
func (s *Set) AppendFrom(src *Set, i int) {
	s.Pos = append(s.Pos, src.Pos[i])
	s.Mom = append(s.Mom, src.Mom[i])
	s.Mass = append(s.Mass, src.Mass[i])
	s.ID = append(s.ID, src.ID[i])
	s.Acc = append(s.Acc, src.Acc[i])
	s.Pot = append(s.Pot, src.Pot[i])
	s.Work = append(s.Work, src.Work[i])
	s.Rung = append(s.Rung, src.Rung[i])
	s.MomEpoch = append(s.MomEpoch, src.MomEpoch[i])
	s.Flags = append(s.Flags, src.Flags[i])
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := New(s.Len())
	for i := 0; i < s.Len(); i++ {
		c.AppendFrom(s, i)
	}
	return c
}

// ChunkBounds returns the index range [lo, hi) of rank's share when total
// particles are dealt to n ranks as contiguous chunks of ceil(total/n) (the
// trailing ranks come up short, or empty).  This is the canonical rank layout:
// the distributed solvers hand it out before every solve and the cluster
// restores it after every step, so a checkpoint — which stores the global
// order — always captures the state a step begins from.
func ChunkBounds(total, rank, n int) (lo, hi int) {
	chunk := (total + n - 1) / n
	lo, hi = rank*chunk, (rank+1)*chunk
	if lo > total {
		lo = total
	}
	if hi > total {
		hi = total
	}
	return lo, hi
}

// Chunk returns a copy of rank's ChunkBounds share of s.
func (s *Set) Chunk(rank, n int) *Set {
	lo, hi := ChunkBounds(s.Len(), rank, n)
	c := New(hi - lo)
	for i := lo; i < hi; i++ {
		c.AppendFrom(s, i)
	}
	return c
}

// SetActive stamps an activity mask into the FlagActive bits, which (unlike
// the mask) travel with each particle through a rank exchange.
func (s *Set) SetActive(active []bool) {
	for i := range s.Flags {
		if active[i] {
			s.Flags[i] |= FlagActive
		} else {
			s.Flags[i] &^= FlagActive
		}
	}
}

// TotalMass returns the summed particle mass.
func (s *Set) TotalMass() float64 {
	t := 0.0
	for _, m := range s.Mass {
		t += m
	}
	return t
}

// Keys computes the space-filling-curve key of every particle for the given
// root box and curve.
func (s *Set) Keys(box vec.Box, curve keys.Curve) []uint64 {
	out := make([]uint64, s.Len())
	for i, p := range s.Pos {
		out[i] = uint64(keys.FromPosition(p, box, curve))
	}
	return out
}

// SortByKey reorders the particles in place into ascending key order (the
// spatial-locality ordering used to update particles, Section 3.3).  It
// returns the sorted keys.
func (s *Set) SortByKey(box vec.Box, curve keys.Curve) []uint64 {
	ks := s.Keys(box, curve)
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ks[idx[a]] < ks[idx[b]] })
	s.Permute(idx)
	sorted := make([]uint64, len(ks))
	for i, j := range idx {
		sorted[i] = ks[j]
	}
	return sorted
}

// Permute reorders the set so that new position i holds old particle idx[i].
func (s *Set) Permute(idx []int) {
	n := s.Len()
	if len(idx) != n {
		panic("particle: Permute index length mismatch")
	}
	newSet := New(n)
	for _, j := range idx {
		newSet.AppendFrom(s, j)
	}
	*s = *newSet
}

// particleRecordSize is the encoded byte size of one particle: pos and mom
// (3 f64 each), mass, id, work and momentum epoch (8 bytes each), rung and
// flags (1 byte each), little-endian, in that order.
const particleRecordSize = 3*8 + 3*8 + 8 + 8 + 8 + 8 + 1 + 1

// EncodeRange serializes the particles at indices, in that order, as
// consecutive fixed-size records for exchange.  Acc and Pot do not travel.
func (s *Set) EncodeRange(indices []int) []byte {
	buf := make([]byte, len(indices)*particleRecordSize)
	rec := buf
	for _, i := range indices {
		putV3(rec[0:], s.Pos[i])
		putV3(rec[24:], s.Mom[i])
		binary.LittleEndian.PutUint64(rec[48:], math.Float64bits(s.Mass[i]))
		binary.LittleEndian.PutUint64(rec[56:], uint64(s.ID[i]))
		binary.LittleEndian.PutUint64(rec[64:], math.Float64bits(s.Work[i]))
		binary.LittleEndian.PutUint64(rec[72:], math.Float64bits(s.MomEpoch[i]))
		rec[80] = uint8(s.Rung[i])
		rec[81] = s.Flags[i]
		rec = rec[particleRecordSize:]
	}
	return buf
}

// DecodeAppend appends particles serialized by EncodeRange.
func (s *Set) DecodeAppend(data []byte) error {
	if len(data)%particleRecordSize != 0 {
		return fmt.Errorf("particle: encoded data length %d is not a multiple of record size", len(data))
	}
	for rec := data; len(rec) > 0; rec = rec[particleRecordSize:] {
		s.Append(getV3(rec[0:]), getV3(rec[24:]),
			math.Float64frombits(binary.LittleEndian.Uint64(rec[48:])),
			int64(binary.LittleEndian.Uint64(rec[56:])))
		j := s.Len() - 1
		s.Work[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[64:]))
		s.MomEpoch[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[72:]))
		s.Rung[j] = int8(rec[80])
		s.Flags[j] = rec[81]
	}
	return nil
}

func putV3(b []byte, v vec.V3) {
	for k, x := range v {
		binary.LittleEndian.PutUint64(b[8*k:], math.Float64bits(x))
	}
}

func getV3(b []byte) (v vec.V3) {
	for k := range v {
		v[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
	return v
}

// Select removes the particles at the given (sorted, unique) indices and
// returns them as a new set.
func (s *Set) Select(indices []int) *Set {
	sel := New(len(indices))
	mark := make(map[int]bool, len(indices))
	for _, i := range indices {
		sel.AppendFrom(s, i)
		mark[i] = true
	}
	keep := New(s.Len() - len(indices))
	for i := 0; i < s.Len(); i++ {
		if !mark[i] {
			keep.AppendFrom(s, i)
		}
	}
	*s = *keep
	return sel
}
