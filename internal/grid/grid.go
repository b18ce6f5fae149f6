// Package grid implements mesh operations shared by the initial-condition
// generator, the particle-mesh baseline solver and the measurement pipeline:
// cloud-in-cell (CIC) mass deposit and interpolation, density-contrast
// fields, and power-spectrum estimation with CIC deconvolution and shot-noise
// subtraction (the diagnostic of Figure 7).
package grid

import (
	"math"

	"twohot/internal/fft"
	"twohot/internal/par"
	"twohot/internal/vec"
)

// Mesh is a scalar field sampled on a regular N^3 grid covering a periodic
// cube of side L.
type Mesh struct {
	N    int
	L    float64
	Data []float64
}

// NewMesh allocates an N^3 mesh for box size L.
func NewMesh(n int, l float64) *Mesh {
	return &Mesh{N: n, L: l, Data: make([]float64, n*n*n)}
}

// Index returns the linear index of cell (i, j, k) with periodic wrapping.
func (m *Mesh) Index(i, j, k int) int {
	n := m.N
	return (wrap(i, n)*n+wrap(j, n))*n + wrap(k, n)
}

// wrap maps a cell index onto [0, n) periodically.
func wrap(i, n int) int { return ((i % n) + n) % n }

// Total returns the sum over all cells.
func (m *Mesh) Total() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// cicCorners returns, per dimension, the offsets of the cloud-in-cell
// assignment's two wrapped cells into the linear index (so corner (a, b, c)
// is idx[0][a]+idx[1][b]+idx[2][c]) and their weights.
func (m *Mesh) cicCorners(p vec.V3) (idx [3][2]int, w [3][2]float64) {
	n := m.N
	inv := float64(n) / m.L
	stride := [3]int{n * n, n, 1}
	for d := 0; d < 3; d++ {
		x := p[d] * inv
		// Center-of-cell convention: cell i covers [i, i+1); the CIC cloud
		// is centered on the particle.
		x -= 0.5
		i := int(math.Floor(x))
		f := x - float64(i)
		idx[d] = [2]int{wrap(i, n) * stride[d], wrap(i+1, n) * stride[d]}
		w[d] = [2]float64{1 - f, f}
	}
	return idx, w
}

// DepositCIC adds mass contributions from particles onto the mesh using
// cloud-in-cell weights.  Positions must lie within [0, L).
func (m *Mesh) DepositCIC(pos []vec.V3, mass []float64) {
	for i, p := range pos {
		mm := 1.0
		if mass != nil {
			mm = mass[i]
		}
		idx, w := m.cicCorners(p)
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					m.Data[idx[0][a]+idx[1][b]+idx[2][c]] += mm * w[0][a] * w[1][b] * w[2][c]
				}
			}
		}
	}
}

// InterpolateCIC evaluates three meshes of one geometry at the particle
// positions, out[i][d] from f[d], with the cloud-in-cell kernel used for
// deposit: the weights and corners are computed once per particle, and each
// field is summed over the corners in the same order.
func InterpolateCIC(f [3]*Mesh, pos []vec.V3, out []vec.V3) {
	for i, p := range pos {
		idx, w := f[0].cicCorners(p)
		var v vec.V3
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					at := idx[0][a] + idx[1][b] + idx[2][c]
					for d, m := range f {
						v[d] += m.Data[at] * w[0][a] * w[1][b] * w[2][c]
					}
				}
			}
		}
		out[i] = v
	}
}

// Overdensity converts a deposited mass mesh into the density contrast
// delta = rho/rho_mean - 1 in place.  It returns the mean cell mass.
func (m *Mesh) Overdensity() float64 {
	mean := m.Total() / float64(len(m.Data))
	if mean == 0 {
		return 0
	}
	for i := range m.Data {
		m.Data[i] = m.Data[i]/mean - 1
	}
	return mean
}

// ToComplex copies the mesh into a complex FFT grid whose transforms run on
// workers goroutines (0 = GOMAXPROCS).
func (m *Mesh) ToComplex(workers int) *fft.Grid3 {
	g := fft.NewGrid3(m.N, m.N, m.N, workers)
	for i, v := range m.Data {
		g.Data[i] = complex(v, 0)
	}
	return g
}

// PowerSpectrumResult is one k bin of a measured spectrum.
type PowerSpectrumResult struct {
	K     float64 // bin-averaged wavenumber [h/Mpc]
	P     float64 // power [(Mpc/h)^3]
	Modes int     // number of Fourier modes in the bin
}

// PowerSpectrumOptions controls the estimator.
type PowerSpectrumOptions struct {
	NBins         int     // number of logarithmic bins (default: N/2 linear-ish bins)
	DeconvolveCIC bool    // divide by the CIC assignment window
	SubtractShot  bool    // subtract 1/n shot noise
	NumParticles  int     // needed when SubtractShot is set
	LogarithmicK  bool    // logarithmic binning (default linear in k)
	KMin, KMax    float64 // bin range; defaults to fundamental..Nyquist
	// Workers bounds the goroutines of the transform and of the
	// mode-binning sweep (0 = GOMAXPROCS).  Each i-plane of k space is
	// accumulated into its own partial bins and the partials are reduced in
	// plane order, so the floating-point sums — and therefore the emitted
	// spectra — are bit-identical for every worker count.
	Workers int
}

// MeasurePower estimates the power spectrum of the density contrast held in
// the mesh.  The mesh must already contain delta (use Overdensity).
func (m *Mesh) MeasurePower(opt PowerSpectrumOptions) []PowerSpectrumResult {
	n := m.N
	l := m.L
	kf := 2 * math.Pi / l
	kny := kf * float64(n) / 2
	if opt.KMin == 0 {
		opt.KMin = kf
	}
	if opt.KMax == 0 {
		opt.KMax = kny
	}
	if opt.NBins == 0 {
		opt.NBins = n / 2
	}

	workers := par.Workers(opt.Workers)
	g := m.ToComplex(workers)
	g.Forward()

	binOf := func(k float64) int {
		if k < opt.KMin || k > opt.KMax {
			return -1
		}
		if opt.LogarithmicK {
			return int(float64(opt.NBins) * math.Log(k/opt.KMin) / math.Log(opt.KMax/opt.KMin))
		}
		return int(float64(opt.NBins) * (k - opt.KMin) / (opt.KMax - opt.KMin))
	}

	vol := l * l * l
	norm := vol / float64(n*n*n) / float64(n*n*n) // V |delta_k|^2 / N^6

	// Per-plane partial bins, filled concurrently (each i-plane is written by
	// exactly one worker) and reduced sequentially in plane order below, so
	// the bin sums carry the same floating-point association for every
	// worker count.
	planeP := make([][]float64, n)
	planeK := make([][]float64, n)
	planeCnt := make([][]int, n)
	par.For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sumP := make([]float64, opt.NBins)
			sumK := make([]float64, opt.NBins)
			cnt := make([]int, opt.NBins)
			ki := float64(fft.FreqIndex(i, n)) * kf
			for j := 0; j < n; j++ {
				kj := float64(fft.FreqIndex(j, n)) * kf
				for k := 0; k < n; k++ {
					if i == 0 && j == 0 && k == 0 {
						continue
					}
					kk := float64(fft.FreqIndex(k, n)) * kf
					kmag := math.Sqrt(ki*ki + kj*kj + kk*kk)
					b := binOf(kmag)
					if b < 0 || b >= opt.NBins {
						continue
					}
					c := g.At(i, j, k)
					p := (real(c)*real(c) + imag(c)*imag(c)) * norm
					if opt.DeconvolveCIC {
						w := cicWindow(ki, kj, kk, l, n)
						if w > 1e-8 {
							p /= w * w
						}
					}
					if opt.SubtractShot && opt.NumParticles > 0 {
						p -= vol / float64(opt.NumParticles)
					}
					sumP[b] += p
					sumK[b] += kmag
					cnt[b]++
				}
			}
			planeP[i], planeK[i], planeCnt[i] = sumP, sumK, cnt
		}
	})

	sumP := make([]float64, opt.NBins)
	sumK := make([]float64, opt.NBins)
	cnt := make([]int, opt.NBins)
	for i := 0; i < n; i++ {
		for b := 0; b < opt.NBins; b++ {
			sumP[b] += planeP[i][b]
			sumK[b] += planeK[i][b]
			cnt[b] += planeCnt[i][b]
		}
	}

	var out []PowerSpectrumResult
	for b := 0; b < opt.NBins; b++ {
		if cnt[b] == 0 {
			continue
		}
		out = append(out, PowerSpectrumResult{
			K:     sumK[b] / float64(cnt[b]),
			P:     sumP[b] / float64(cnt[b]),
			Modes: cnt[b],
		})
	}
	return out
}

// cicWindow is the Fourier-space CIC assignment window
// prod_i sinc^2(k_i L / (2N)).
func cicWindow(kx, ky, kz, l float64, n int) float64 {
	h := l / float64(n)
	s := func(k float64) float64 {
		x := k * h / 2
		if math.Abs(x) < 1e-12 {
			return 1
		}
		v := math.Sin(x) / x
		return v * v
	}
	return s(kx) * s(ky) * s(kz)
}

// CICWindow exposes the assignment window for use by the initial-condition
// discreteness correction (DEC).
func CICWindow(kx, ky, kz, l float64, n int) float64 { return cicWindow(kx, ky, kz, l, n) }

// MeasureParticlePower is a convenience helper: deposit particles, convert to
// overdensity and measure the power spectrum.
func MeasureParticlePower(pos []vec.V3, l float64, nMesh int, opt PowerSpectrumOptions) []PowerSpectrumResult {
	m := NewMesh(nMesh, l)
	m.DepositCIC(pos, nil)
	m.Overdensity()
	if opt.NumParticles == 0 {
		opt.NumParticles = len(pos)
	}
	opt.DeconvolveCIC = true
	return m.MeasurePower(opt)
}
