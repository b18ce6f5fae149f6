package multipole

// The paper's Table 3 harness: the single-precision monopole micro-kernel,
// blocked m x n against scalar, in Gflop/s at 28 flops per interaction, and
// the Section 3.3 blocking ablation over block shapes.  Run with
//
//	go test -run '^$' -bench 'Table3|BlockingAblation' ./internal/multipole

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// source32 is the packed single-precision source used by the blocked
// ("m x n") interaction kernels.  This is the structure-of-arrays layout the
// paper swizzles sources into for SIMD and GPU execution.
type source32 struct {
	X, Y, Z, M []float32
}

// newSource32 allocates a packed source block of capacity n.
func newSource32(n int) *source32 {
	return &source32{
		X: make([]float32, 0, n),
		Y: make([]float32, 0, n),
		Z: make([]float32, 0, n),
		M: make([]float32, 0, n),
	}
}

// Append adds a source.
func (s *source32) Append(x, y, z, m float32) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Z = append(s.Z, z)
	s.M = append(s.M, m)
}

// sink32 is a block of sink particles with their accumulated accelerations,
// in single precision.
type sink32 struct {
	X, Y, Z       []float32
	Ax, Ay, Az    []float32
	Pot           []float32
	countComputed int64
}

// newSink32 builds a sink block from positions.
func newSink32(x, y, z []float32) *sink32 {
	n := len(x)
	return &sink32{
		X: x, Y: y, Z: z,
		Ax: make([]float32, n), Ay: make([]float32, n), Az: make([]float32, n),
		Pot: make([]float32, n),
	}
}

// Interactions returns the number of pairwise interactions accumulated.
func (s *sink32) Interactions() int64 { return s.countComputed }

// blockedMonopole32 performs the full m x n monopole interaction between a
// source block and a sink block in single precision.  This is the
// micro-kernel measured in Table 3 (28 flops per interaction) and the
// building block of the GPU/SIMD execution model described in Section 3.3.
func blockedMonopole32(src *source32, snk *sink32, eps2 float32) {
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

// scalarMonopole32 is the non-blocked (one sink at a time, one source at a
// time, re-reading sink coordinates from memory each interaction) variant,
// used as the baseline in the blocking ablation benchmark.
func scalarMonopole32(src *source32, snk *sink32, eps2 float32) {
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

func TestBlockedMonopoleMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 64, 32
	src := newSource32(m)
	for j := 0; j < m; j++ {
		src.Append(rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()+0.5)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	zs := make([]float32, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i], zs[i] = rng.Float32()+2, rng.Float32()+2, rng.Float32()+2
	}
	a := newSink32(xs, ys, zs)
	b := newSink32(xs, ys, zs)
	blockedMonopole32(src, a, 1e-6)
	scalarMonopole32(src, b, 1e-6)
	for i := 0; i < n; i++ {
		if math.Abs(float64(a.Ax[i]-b.Ax[i])) > 1e-5 || math.Abs(float64(a.Pot[i]-b.Pot[i])) > 1e-4 {
			t.Fatalf("blocked and scalar kernels disagree at sink %d", i)
		}
	}
	if a.Interactions() != int64(m*n) {
		t.Errorf("interaction count %d, want %d", a.Interactions(), m*n)
	}
}

func microKernelData(m, n int) (*source32, *sink32) {
	rng := rand.New(rand.NewSource(1))
	src := newSource32(m)
	for j := 0; j < m; j++ {
		src.Append(rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()+0.5)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	zs := make([]float32, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i], zs[i] = rng.Float32(), rng.Float32(), rng.Float32()
	}
	return src, newSink32(xs, ys, zs)
}

func reportGflops(b *testing.B, interactionsPerOp int64) {
	b.ReportMetric(float64(interactionsPerOp*FlopsPerMonopole)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
	b.ReportMetric(float64(interactionsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

func BenchmarkTable3MicrokernelBlocked(b *testing.B) {
	const m, n = 256, 64
	src, snk := microKernelData(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockedMonopole32(src, snk, 1e-6)
	}
	reportGflops(b, int64(m*n))
}

func BenchmarkTable3MicrokernelScalar(b *testing.B) {
	const m, n = 256, 64
	src, snk := microKernelData(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarMonopole32(src, snk, 1e-6)
	}
	reportGflops(b, int64(m*n))
}

func BenchmarkTable3MicrokernelAllCores(b *testing.B) {
	const m, n = 256, 64
	b.RunParallel(func(pb *testing.PB) {
		src, snk := microKernelData(m, n)
		for pb.Next() {
			blockedMonopole32(src, snk, 1e-6)
		}
	})
	reportGflops(b, int64(m*n))
}

// BenchmarkBlockingAblation is Section 3.3's ablation: the blocked kernel at
// several m x n block shapes.
func BenchmarkBlockingAblation(b *testing.B) {
	for _, shape := range []struct{ m, n int }{{16, 16}, {64, 32}, {256, 64}, {1024, 64}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", shape.m, shape.n), func(b *testing.B) {
			src, snk := microKernelData(shape.m, shape.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blockedMonopole32(src, snk, 1e-6)
			}
			reportGflops(b, int64(shape.m*shape.n))
		})
	}
}
