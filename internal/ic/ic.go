// Package ic generates cosmological initial conditions: a Gaussian random
// realization of the linear power spectrum displaced onto a particle grid
// with first-order (Zel'dovich) or second-order (2LPT) Lagrangian
// perturbation theory.  It reproduces the controls exercised by Figure 7 of
// the paper: the 2LPT correction can be disabled, the discreteness correction
// (DEC, a CIC-deconvolution-like compensation of the improper growth of modes
// near the Nyquist frequency) can be toggled, and modes outside the Nyquist
// sphere can be zeroed ("SphereMode").
package ic

import (
	"fmt"
	"math"
	"math/rand"

	"twohot/internal/cosmo"
	"twohot/internal/fft"
	"twohot/internal/grid"
	"twohot/internal/transfer"
	"twohot/internal/vec"
)

// Options configures the generator.
type Options struct {
	NGrid    int     // particles per dimension (total N = NGrid^3)
	BoxSize  float64 // comoving box side in Mpc/h
	ZInit    float64 // starting redshift
	Seed     int64   // random seed for the Gaussian field
	Use2LPT  bool    // apply the second-order correction
	UseDEC   bool    // discreteness (CIC-deconvolution-like) correction
	Sphere   bool    // zero modes beyond the Nyquist sphere ("SphereMode 1")
	MeshOver int     // displacement mesh oversampling factor (1 = same as particle grid)
}

// Particles is the output of the generator, in internal code units
// (positions in Mpc/h inside [0, BoxSize); Mom is the canonical momentum
// p = a^2 dx/dt used by the symplectic integrator; Vel() converts to the
// peculiar velocity a*dx/dt in km/s).
type Particles struct {
	Pos  []vec.V3
	Mom  []vec.V3
	Mass float64 // single particle mass (1e10 Msun/h)
	A    float64 // scale factor the data corresponds to
	Box  float64
}

// N returns the particle count.
func (p *Particles) N() int { return len(p.Pos) }

// Generate builds a particle realization of the spectrum at the requested
// starting redshift.
func Generate(par cosmo.Params, spec *transfer.Spectrum, opt Options) (*Particles, error) {
	if opt.NGrid < 2 {
		return nil, fmt.Errorf("ic: NGrid must be at least 2, got %d", opt.NGrid)
	}
	if opt.BoxSize <= 0 {
		return nil, fmt.Errorf("ic: BoxSize must be positive")
	}
	if opt.MeshOver <= 0 {
		opt.MeshOver = 1
	}
	n := opt.NGrid
	l := opt.BoxSize
	aInit := 1 / (1 + opt.ZInit)

	// Linear density contrast at z=0 scaled to the starting epoch by the
	// growth factor (the standard back-scaling procedure).
	d1 := par.GrowthFactor(aInit)
	f1 := par.GrowthRate(aInit)
	// Second-order growth factor and rate (standard approximations).  The
	// textbook convention is D2 = -3/7 D1^2 Omega^(-1/143) applied to a
	// field psi2 with div(psi2) = +source; displacementFromDelta below
	// returns a field with div = -source, so the two sign flips cancel and
	// d2 here is positive.
	omA := par.OmegaMatterAt(aInit)
	d2 := 3.0 / 7.0 * d1 * d1 * math.Pow(omA, -1.0/143.0)
	f2 := 2 * math.Pow(omA, 6.0/11.0)

	deltaK := gaussianFieldK(spec, n, l, opt)

	// First-order displacement potential: psi1_k = i k / k^2 * delta_k.
	psi1 := displacementFromDelta(deltaK, n, l)

	var psi2 [3]*grid.Mesh
	if opt.Use2LPT {
		src := secondOrderSource(deltaK, n, l)
		src2k := src.ToComplex()
		src2k.Forward()
		psi2 = displacementFromDelta(src2k, n, l)
	}

	// Build particles on the Lagrangian grid.
	np := n * n * n
	p := &Particles{
		Pos:  make([]vec.V3, np),
		Mom:  make([]vec.V3, np),
		Mass: par.ParticleMass(l, np),
		A:    aInit,
		Box:  l,
	}
	h := l / float64(n)
	hubble := par.Hubble(aInit)
	idx := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				q := vec.V3{(float64(i) + 0.5) * h, (float64(j) + 0.5) * h, (float64(k) + 0.5) * h}
				gi := (i*n+j)*n + k
				disp := vec.V3{psi1[0].Data[gi], psi1[1].Data[gi], psi1[2].Data[gi]}.Scale(d1)
				// Peculiar velocity u = a dx/dt.
				velComoving := vec.V3{psi1[0].Data[gi], psi1[1].Data[gi], psi1[2].Data[gi]}.Scale(d1 * f1 * hubble * aInit)
				if opt.Use2LPT {
					disp2 := vec.V3{psi2[0].Data[gi], psi2[1].Data[gi], psi2[2].Data[gi]}.Scale(d2)
					disp = disp.Add(disp2)
					velComoving = velComoving.Add(
						vec.V3{psi2[0].Data[gi], psi2[1].Data[gi], psi2[2].Data[gi]}.Scale(d2 * f2 * hubble * aInit))
				}
				pos := vec.WrapV(q.Add(disp), l)
				p.Pos[idx] = pos
				// Canonical momentum p = a^2 dx/dt = a * (a dx/dt).
				p.Mom[idx] = velComoving.Scale(aInit)
				idx++
			}
		}
	}
	return p, nil
}

// gaussianFieldK returns delta_k at z=0 on an n^3 grid for box size l, in the
// discrete convention <|delta_k|^2> = P(k) N^6 / V (so that the grid.Mesh
// power estimator recovers P directly).
func gaussianFieldK(spec *transfer.Spectrum, n int, l float64, opt Options) *fft.Grid3 {
	rng := rand.New(rand.NewSource(opt.Seed))
	// White Gaussian noise in real space guarantees Hermitian symmetry of
	// the transform and unit variance per mode after FFT normalization.
	g := fft.NewCube(n)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	g.Forward()

	kf := 2 * math.Pi / l
	kny := kf * float64(n) / 2
	vol := l * l * l
	n3 := float64(n * n * n)
	for i := 0; i < n; i++ {
		ki := float64(fft.FreqIndex(i, n)) * kf
		for j := 0; j < n; j++ {
			kj := float64(fft.FreqIndex(j, n)) * kf
			for k := 0; k < n; k++ {
				kk := float64(fft.FreqIndex(k, n)) * kf
				idx := g.Index(i, j, k)
				if i == 0 && j == 0 && k == 0 {
					g.Data[idx] = 0
					continue
				}
				kmag := math.Sqrt(ki*ki + kj*kj + kk*kk)
				if opt.Sphere && kmag > kny {
					g.Data[idx] = 0
					continue
				}
				amp := math.Sqrt(spec.P(kmag) * n3 / vol)
				if opt.UseDEC {
					// Compensate the discrete representation of the
					// continuous modes near the Nyquist frequency by the
					// same form as a cloud-in-cell deconvolution.
					w := grid.CICWindow(ki, kj, kk, l, n)
					if w > 1e-3 {
						amp /= w
					}
				}
				g.Data[idx] *= complex(amp, 0)
			}
		}
	}
	return g
}

// displacementFromDelta computes the (first-order form of the) displacement
// field psi_k = i k / k^2 * delta_k and returns its three real-space
// components.
func displacementFromDelta(deltaK *fft.Grid3, n int, l float64) [3]*grid.Mesh {
	kf := 2 * math.Pi / l
	var out [3]*grid.Mesh
	for c := 0; c < 3; c++ {
		comp := fft.NewCube(n)
		for i := 0; i < n; i++ {
			ki := float64(fft.FreqIndex(i, n)) * kf
			for j := 0; j < n; j++ {
				kj := float64(fft.FreqIndex(j, n)) * kf
				for k := 0; k < n; k++ {
					kk := float64(fft.FreqIndex(k, n)) * kf
					idx := comp.Index(i, j, k)
					k2 := ki*ki + kj*kj + kk*kk
					if k2 == 0 {
						comp.Data[idx] = 0
						continue
					}
					var kc float64
					switch c {
					case 0:
						kc = ki
					case 1:
						kc = kj
					default:
						kc = kk
					}
					// psi = -grad phi with phi_k = -delta_k/k^2, so
					// psi_k = i k delta_k / k^2.
					comp.Data[idx] = complex(0, kc/k2) * deltaK.Data[idx]
				}
			}
		}
		comp.Inverse()
		m := grid.NewMesh(n, l)
		for i := range m.Data {
			m.Data[i] = real(comp.Data[i])
		}
		out[c] = m
	}
	return out
}

// secondOrderSource builds the 2LPT source field
//
//	delta2(x) = sum_{i<j} [phi_,ii phi_,jj - (phi_,ij)^2]
//
// in real space, where phi is the first-order displacement potential
// (phi_k = -delta_k / k^2).
func secondOrderSource(deltaK *fft.Grid3, n int, l float64) *grid.Mesh {
	kf := 2 * math.Pi / l
	// Compute the six independent second derivatives phi_,ij.
	derivs := make([]*grid.Mesh, 6)
	pairs := [6][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 2}}
	for d, pr := range pairs {
		comp := fft.NewCube(n)
		for i := 0; i < n; i++ {
			kvec0 := float64(fft.FreqIndex(i, n)) * kf
			for j := 0; j < n; j++ {
				kvec1 := float64(fft.FreqIndex(j, n)) * kf
				for k := 0; k < n; k++ {
					kvec2 := float64(fft.FreqIndex(k, n)) * kf
					idx := comp.Index(i, j, k)
					kv := [3]float64{kvec0, kvec1, kvec2}
					k2 := kv[0]*kv[0] + kv[1]*kv[1] + kv[2]*kv[2]
					if k2 == 0 {
						comp.Data[idx] = 0
						continue
					}
					// phi_,ij in Fourier space: (-k_i k_j)(-delta/k^2) = k_i k_j delta / k^2.
					comp.Data[idx] = complex(kv[pr[0]]*kv[pr[1]]/k2, 0) * deltaK.Data[idx]
				}
			}
		}
		comp.Inverse()
		m := grid.NewMesh(n, l)
		for i := range m.Data {
			m.Data[i] = real(comp.Data[i])
		}
		derivs[d] = m
	}
	src := grid.NewMesh(n, l)
	xx, yy, zz, xy, xz, yz := derivs[0], derivs[1], derivs[2], derivs[3], derivs[4], derivs[5]
	for i := range src.Data {
		src.Data[i] = xx.Data[i]*yy.Data[i] - xy.Data[i]*xy.Data[i] +
			xx.Data[i]*zz.Data[i] - xz.Data[i]*xz.Data[i] +
			yy.Data[i]*zz.Data[i] - yz.Data[i]*yz.Data[i]
	}
	return src
}

// LinearDelta returns the real-space linear density contrast at z=0 for the
// same random realization, useful for tests and for the Zel'dovich plane-wave
// validation.
func LinearDelta(spec *transfer.Spectrum, n int, l float64, opt Options) *grid.Mesh {
	g := gaussianFieldK(spec, n, l, opt)
	g.Inverse()
	m := grid.NewMesh(n, l)
	for i := range m.Data {
		m.Data[i] = real(g.Data[i])
	}
	return m
}
