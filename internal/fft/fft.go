// Package fft provides the fast Fourier transforms required by the
// simulation pipeline: initial-condition generation (2LPT), the particle-mesh
// solver, and power-spectrum measurement.  The paper links against FFTW;
// this stdlib-only implementation supplies an iterative radix-2 Cooley–Tukey
// transform, a Bluestein fallback for arbitrary lengths, goroutine-parallel
// complex 3-D transforms (Grid3, used by the initial conditions and P(k)),
// and FFTW's real-to-complex half-spectrum layout on top of them (Half,
// used by the mesh solver), which does half the work for a real field.
package fft

import (
	"math"
	"math/cmplx"

	"twohot/internal/par"
)

// Plan is a reusable 1-D complex FFT plan for a fixed length.
type Plan struct {
	N        int
	pow2     bool
	perm     []int          // bit-reversal permutation (radix-2 path)
	twiddle  []complex128   // stage twiddle factors (radix-2 path)
	itwiddle []complex128   // their conjugates, for the inverse (radix-2 path)
	bs       *bluesteinPlan // arbitrary-length path
}

// NewPlan builds a plan for length n (n >= 1).
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic("fft: length must be positive")
	}
	p := &Plan{N: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.perm = bitReversePermutation(n)
		p.twiddle = make([]complex128, n/2)
		p.itwiddle = make([]complex128, n/2)
		for i := 0; i < n/2; i++ {
			angle := -2 * math.Pi * float64(i) / float64(n)
			p.twiddle[i] = cmplx.Exp(complex(0, angle))
			p.itwiddle[i] = cmplx.Conj(p.twiddle[i])
		}
	} else {
		p.bs = newBluestein(n)
	}
	return p
}

func bitReversePermutation(n int) []int {
	perm := make([]int, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		perm[i] = r
	}
	return perm
}

// Forward transforms data in place with the e^{-2 pi i k x / N} convention.
func (p *Plan) Forward(data []complex128) { p.apply(data, false, p.scratch()) }

// Inverse transforms data in place, including the 1/N normalization.
func (p *Plan) Inverse(data []complex128) { p.apply(data, true, p.scratch()) }

// scratch returns a buffer long enough for one transform of this plan: the
// Bluestein path convolves at its padded length, the radix-2 path needs none.
func (p *Plan) scratch() []complex128 {
	if p.pow2 {
		return nil
	}
	return make([]complex128, p.bs.m)
}

// apply is Forward (inverse false) or Inverse (inverse true) with a caller's
// scratch from p.scratch, so a loop over lines allocates it once.
func (p *Plan) apply(data []complex128, inverse bool, scratch []complex128) {
	if len(data) != p.N {
		panic("fft: data length does not match plan")
	}
	if p.pow2 {
		p.radix2(data, inverse)
	} else {
		p.bs.transform(data, inverse, scratch)
	}
	if inverse {
		scale := complex(1/float64(p.N), 0)
		for i := range data {
			data[i] *= scale
		}
	}
}

func (p *Plan) radix2(data []complex128, inverse bool) {
	n := p.N
	// Bit-reversal reorder.
	for i, j := range p.perm {
		if j > i {
			data[i], data[j] = data[j], data[i]
		}
	}
	twiddle := p.twiddle
	if inverse {
		twiddle = p.itwiddle
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := twiddle[k*step]
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

// bluesteinPlan implements the chirp-z transform for arbitrary lengths using
// a power-of-two convolution.
type bluesteinPlan struct {
	n     int
	m     int
	chirp []complex128 // chirp[k] = exp(-i pi k^2 / n)
	fb    []complex128 // FFT of the padded conjugate chirp
	inner *Plan
}

func newBluestein(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bs := &bluesteinPlan{n: n, m: m, inner: NewPlan(m)}
	bs.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		angle := math.Pi * float64(k) * float64(k) / float64(n)
		bs.chirp[k] = cmplx.Exp(complex(0, -angle))
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(bs.chirp[0])
	for k := 1; k < n; k++ {
		b[k] = cmplx.Conj(bs.chirp[k])
		b[m-k] = cmplx.Conj(bs.chirp[k])
	}
	bs.inner.Forward(b)
	bs.fb = b
	return bs
}

// transform convolves in scratch, which must hold at least bs.m values.
func (bs *bluesteinPlan) transform(data []complex128, inverse bool, scratch []complex128) {
	n, m := bs.n, bs.m
	a := scratch[:m]
	clear(a[n:])
	for k := 0; k < n; k++ {
		x := data[k]
		if inverse {
			x = cmplx.Conj(x)
		}
		a[k] = x * bs.chirp[k]
	}
	bs.inner.Forward(a)
	for i := 0; i < m; i++ {
		a[i] *= bs.fb[i]
	}
	bs.inner.Inverse(a)
	for k := 0; k < n; k++ {
		y := a[k] * bs.chirp[k]
		if inverse {
			y = cmplx.Conj(y)
		}
		data[k] = y
	}
}

// Grid3 is an N0 x N1 x N2 complex grid with in-place 3-D transforms.
type Grid3 struct {
	N       [3]int
	Data    []complex128
	plan    [3]*Plan
	workers int // goroutines of every transform pass, resolved at construction
}

// NewGrid3 allocates a grid of the given dimensions whose transforms run on
// workers goroutines (0 = GOMAXPROCS).
func NewGrid3(n0, n1, n2, workers int) *Grid3 {
	g := &Grid3{N: [3]int{n0, n1, n2}, Data: make([]complex128, n0*n1*n2)}
	g.workers = par.Workers(workers)
	g.plan[0] = NewPlan(n0)
	g.plan[1] = NewPlan(n1)
	if n2 == n1 {
		g.plan[2] = g.plan[1]
	} else {
		g.plan[2] = NewPlan(n2)
	}
	if n1 == n0 {
		g.plan[1] = g.plan[0]
		if n2 == n0 {
			g.plan[2] = g.plan[0]
		}
	}
	return g
}

// NewCube returns a cubic grid of side n transforming on GOMAXPROCS
// goroutines.
func NewCube(n int) *Grid3 { return NewGrid3(n, n, n, 0) }

// Index returns the linear index of (i, j, k).
func (g *Grid3) Index(i, j, k int) int { return (i*g.N[1]+j)*g.N[2] + k }

// At returns the value at (i, j, k).
func (g *Grid3) At(i, j, k int) complex128 { return g.Data[g.Index(i, j, k)] }

// Set stores a value at (i, j, k).
func (g *Grid3) Set(i, j, k int, v complex128) { g.Data[g.Index(i, j, k)] = v }

// Forward performs the 3-D forward transform in place.
func (g *Grid3) Forward() { g.transform(false) }

// Inverse performs the 3-D inverse transform (with 1/N^3 normalization) in
// place.
func (g *Grid3) Inverse() { g.transform(true) }

// transform runs the axis-2 pass, then the axis-1 and axis-0 passes.
func (g *Grid3) transform(inverse bool) {
	n2 := g.N[2]
	par.For(g.N[0]*g.N[1], g.workers, func(lo, hi int) {
		scratch := g.plan[2].scratch()
		for line := lo; line < hi; line++ {
			start := line * n2
			g.plan[2].apply(g.Data[start:start+n2], inverse, scratch)
		}
	})
	g.columns(inverse)
}

// columns transforms every line along axis 1, then every line along axis 0.
// The half spectrum runs them over its n x n x (n/2+1) storage.
func (g *Grid3) columns(inverse bool) {
	n0, n1, n2 := g.N[0], g.N[1], g.N[2]
	// Axis 1: line (i, k) starts at (i, 0, k), stride n2.
	g.strided(g.plan[1], n0*n2, n2, func(line int) int { return line/n2*n1*n2 + line%n2 }, inverse)
	// Axis 0: line (j, k) starts at (0, j, k), stride n1*n2.
	g.strided(g.plan[0], n1*n2, n1*n2, func(line int) int { return line }, inverse)
}

// strided transforms lines of p.N elements spaced stride apart, line l
// starting at start(l), through one gather buffer per worker range.
func (g *Grid3) strided(p *Plan, lines, stride int, start func(line int) int, inverse bool) {
	par.For(lines, g.workers, func(lo, hi int) {
		buf, scratch := make([]complex128, p.N), p.scratch()
		for line := lo; line < hi; line++ {
			first := start(line)
			for x := range buf {
				buf[x] = g.Data[first+x*stride]
			}
			p.apply(buf, inverse, scratch)
			for x, v := range buf {
				g.Data[first+x*stride] = v
			}
		}
	})
}

// Half is the half spectrum of a real n^3 field, the real-to-complex layout
// of FFTW: a Grid3 of n x n x (n/2+1) holding the last-axis frequencies
// 0..n/2, the rest being the complex conjugates of these (X(-k) = conj X(k)).
// Its axis-1 and axis-0 passes are Grid3's; its last-axis pass transforms
// two real rows of the field as one complex line, with the length-n plan
// the three axes share.  Call Half's Forward and Inverse, not the embedded
// Grid3's.
type Half struct{ Grid3 }

// NewHalf allocates the half spectrum of a real field of side n (n >= 1)
// whose transforms run on workers goroutines (0 = GOMAXPROCS).
func NewHalf(n, workers int) *Half {
	p := NewPlan(n)
	h := n/2 + 1
	return &Half{Grid3{N: [3]int{n, n, h}, Data: make([]complex128, n*n*h), plan: [3]*Plan{p, p, p},
		workers: par.Workers(workers)}}
}

// Forward sets the spectrum to the 3-D forward transform of the real field
// x (n^3 values in Grid3 order), which it leaves unchanged.
func (h *Half) Forward(x []float64) {
	h.rows(x, false)
	h.columns(false)
}

// Inverse overwrites x with the real 3-D inverse transform (with 1/n^3
// normalization) of the spectrum, which it consumes.  The last axis's DC
// and, for even n, Nyquist bins are taken as real, so x is the real part of
// the full complex inverse of the Hermitian spectrum the half describes.
func (h *Half) Inverse(x []float64) {
	h.columns(true)
	h.rows(x, true)
}

// rows transforms the n^2 real rows of x along the last axis to (forward)
// or from (inverse) the half rows of the spectrum.  Rows 2p and 2p+1 travel
// as the real and imaginary parts of one complex line z = a + ib, whose
// spectrum Z splits as A(k) = (Z(k) + conj Z(n-k))/2 and
// B(k) = (Z(k) - conj Z(n-k))/2i; with an odd row count the last row is
// transformed alone, b being a zero row.
func (h *Half) rows(x []float64, inverse bool) {
	n, nh, rows := h.N[0], h.N[2], h.N[0]*h.N[1]
	if len(x) != rows*n {
		panic("fft: real field length does not match half spectrum")
	}
	row := h.plan[2]
	par.For((rows+1)/2, h.workers, func(lo, hi int) {
		z, scratch := make([]complex128, n), row.scratch()
		for pair := lo; pair < hi; pair++ {
			r := 2 * pair
			a, sa := x[r*n:(r+1)*n], h.Data[r*nh:(r+1)*nh]
			var b []float64
			var sb []complex128
			if r+1 == rows {
				b, sb = make([]float64, n), make([]complex128, nh)
			} else {
				b, sb = x[(r+1)*n:(r+2)*n], h.Data[(r+1)*nh:(r+2)*nh]
			}
			if !inverse {
				for i := range z {
					z[i] = complex(a[i], b[i])
				}
				row.apply(z, false, scratch)
				for k := range sa {
					zk, zm := z[k], z[(n-k)%n]
					sa[k] = complex((real(zk)+real(zm))/2, (imag(zk)-imag(zm))/2)
					sb[k] = complex((imag(zk)+imag(zm))/2, (real(zm)-real(zk))/2)
				}
				continue
			}
			for k, ak := range sa {
				bk := sb[k]
				if k == 0 || 2*k == n {
					ak, bk = complex(real(ak), 0), complex(real(bk), 0)
				}
				z[k] = complex(real(ak)-imag(bk), imag(ak)+real(bk))
				z[(n-k)%n] = complex(real(ak)+imag(bk), real(bk)-imag(ak))
			}
			row.apply(z, true, scratch)
			for i, v := range z {
				a[i], b[i] = real(v), imag(v)
			}
		}
	})
}

// FreqIndex maps a grid index to the signed frequency index (-N/2 .. N/2-1).
func FreqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
