package multipole

import "math"

// FlopsPerMonopole is the conventional operation count per monopole
// interaction used by the paper (Table 3) when converting interaction counts
// into flop rates.
const FlopsPerMonopole = 28

// FlopsPerQuadrupole and FlopsPerHexadecapole are the per-interaction
// operation counts used for the flop accounting of Table 2.  They follow the
// cost model of the Cartesian expansions (number of independent tensor
// components touched by the force contraction).
const (
	FlopsPerQuadrupole   = 112
	FlopsPerHexadecapole = 450
)

// Source32 is the packed single-precision source used by the blocked
// ("m x n") interaction kernels.  This is the structure-of-arrays layout the
// paper swizzles sources into for SIMD and GPU execution.
type Source32 struct {
	X, Y, Z, M []float32
}

// NewSource32 allocates a packed source block of capacity n.
func NewSource32(n int) *Source32 {
	return &Source32{
		X: make([]float32, 0, n),
		Y: make([]float32, 0, n),
		Z: make([]float32, 0, n),
		M: make([]float32, 0, n),
	}
}

// Append adds a source.
func (s *Source32) Append(x, y, z, m float32) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Z = append(s.Z, z)
	s.M = append(s.M, m)
}

// Reset empties the block keeping capacity.
func (s *Source32) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
	s.Z = s.Z[:0]
	s.M = s.M[:0]
}

// Len returns the number of sources in the block.
func (s *Source32) Len() int { return len(s.X) }

// Sink32 is a block of sink particles with their accumulated accelerations,
// in single precision.
type Sink32 struct {
	X, Y, Z       []float32
	Ax, Ay, Az    []float32
	Pot           []float32
	countComputed int64
}

// NewSink32 builds a sink block from positions.
func NewSink32(x, y, z []float32) *Sink32 {
	n := len(x)
	return &Sink32{
		X: x, Y: y, Z: z,
		Ax: make([]float32, n), Ay: make([]float32, n), Az: make([]float32, n),
		Pot: make([]float32, n),
	}
}

// Interactions returns the number of pairwise interactions accumulated.
func (s *Sink32) Interactions() int64 { return s.countComputed }

// BlockedMonopole32 performs the full m x n monopole interaction between a
// source block and a sink block in single precision.  This is the
// micro-kernel measured in Table 3 (28 flops per interaction) and the
// building block of the GPU/SIMD execution model described in Section 3.3.
func BlockedMonopole32(src *Source32, snk *Sink32, eps2 float32) {
	n := len(snk.X)
	m := len(src.X)
	for i := 0; i < n; i++ {
		xi, yi, zi := snk.X[i], snk.Y[i], snk.Z[i]
		var ax, ay, az, pot float32
		for j := 0; j < m; j++ {
			dx := src.X[j] - xi
			dy := src.Y[j] - yi
			dz := src.Z[j] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / float32(math.Sqrt(float64(r2)))
			mj := src.M[j]
			pot += mj * inv
			mInv3 := mj * inv * inv * inv
			ax += dx * mInv3
			ay += dy * mInv3
			az += dz * mInv3
		}
		snk.Ax[i] += ax
		snk.Ay[i] += ay
		snk.Az[i] += az
		snk.Pot[i] += pot
		snk.countComputed += int64(m)
	}
}

// ScalarMonopole32 is the non-blocked (one sink at a time, one source at a
// time, re-reading sink coordinates from memory each interaction) variant,
// used as the baseline in the blocking ablation benchmark.
func ScalarMonopole32(src *Source32, snk *Sink32, eps2 float32) {
	m := len(src.X)
	for j := 0; j < m; j++ {
		for i := range snk.X {
			dx := src.X[j] - snk.X[i]
			dy := src.Y[j] - snk.Y[i]
			dz := src.Z[j] - snk.Z[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / float32(math.Sqrt(float64(r2)))
			mj := src.M[j]
			snk.Pot[i] += mj * inv
			mInv3 := mj * inv * inv * inv
			snk.Ax[i] += dx * mInv3
			snk.Ay[i] += dy * mInv3
			snk.Az[i] += dz * mInv3
			snk.countComputed++
		}
	}
}
