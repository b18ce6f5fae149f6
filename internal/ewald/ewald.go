// Package ewald provides two independent treatments of periodic boundary
// conditions:
//
//  1. A brute-force Ewald summation (Hernquist, Bouchet & Suto 1991) used as
//     the accuracy reference of the paper's "distance ladder" (Section 5):
//     it is far too slow for production but verifies the fast method.
//
//  2. The production approach of Section 2.4: the infinite lattice of box
//     replicas beyond the explicitly-traversed neighbor images is folded
//     into a local (Taylor) expansion about the box center whose
//     coefficients are lattice sums of the derivative tensors of 1/r
//     (Nijboer & De Wette 1957; Challacombe et al. 1997; Metchnik 2009).
//     The coefficients are geometry-only, so they are computed once and
//     cached.
package ewald

import (
	"math"
	"sync"

	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// Options for the reference Ewald summation.
type Options struct {
	Alpha     float64 // splitting parameter in units of 1/L (default 2)
	RealShell int     // real-space replicas per dimension (default 4)
	KShell    int     // k-space modes per dimension (default 8)
}

func (o *Options) defaults() {
	if o.Alpha == 0 {
		o.Alpha = 2
	}
	if o.RealShell == 0 {
		o.RealShell = 4
	}
	if o.KShell == 0 {
		o.KShell = 8
	}
}

// Accel returns the acceleration at separation dx (sink position minus source
// position) produced by a unit point mass, all of its periodic images in a
// box of side L, and the uniform neutralizing background.  The result is the
// "peculiar" acceleration appropriate for comoving coordinates.
func Accel(dx vec.V3, L float64, opt Options) vec.V3 {
	opt.defaults()
	alpha := opt.Alpha / L
	var acc vec.V3
	// Real-space sum.
	for nx := -opt.RealShell; nx <= opt.RealShell; nx++ {
		for ny := -opt.RealShell; ny <= opt.RealShell; ny++ {
			for nz := -opt.RealShell; nz <= opt.RealShell; nz++ {
				r := vec.V3{dx[0] - float64(nx)*L, dx[1] - float64(ny)*L, dx[2] - float64(nz)*L}
				rr := r.Norm()
				if rr < 1e-12 {
					continue
				}
				fac := math.Erfc(alpha*rr) + 2*alpha*rr/math.Sqrt(math.Pi)*math.Exp(-alpha*alpha*rr*rr)
				acc = acc.Add(r.Scale(-fac / (rr * rr * rr)))
			}
		}
	}
	// k-space sum.
	twoPiL := 2 * math.Pi / L
	pref := 4 * math.Pi / (L * L * L)
	for hx := -opt.KShell; hx <= opt.KShell; hx++ {
		for hy := -opt.KShell; hy <= opt.KShell; hy++ {
			for hz := -opt.KShell; hz <= opt.KShell; hz++ {
				if hx == 0 && hy == 0 && hz == 0 {
					continue
				}
				k := vec.V3{float64(hx) * twoPiL, float64(hy) * twoPiL, float64(hz) * twoPiL}
				k2 := k.Norm2()
				damp := math.Exp(-k2 / (4 * alpha * alpha))
				s := math.Sin(k.Dot(dx))
				acc = acc.Add(k.Scale(-pref * damp * s / k2))
			}
		}
	}
	return acc
}

// Potential returns the kernel sum (positive, 1/r-like) at separation dx from
// a unit source with all periodic images and the neutralizing background.
func Potential(dx vec.V3, L float64, opt Options) float64 {
	opt.defaults()
	alpha := opt.Alpha / L
	sum := 0.0
	for nx := -opt.RealShell; nx <= opt.RealShell; nx++ {
		for ny := -opt.RealShell; ny <= opt.RealShell; ny++ {
			for nz := -opt.RealShell; nz <= opt.RealShell; nz++ {
				r := vec.V3{dx[0] - float64(nx)*L, dx[1] - float64(ny)*L, dx[2] - float64(nz)*L}
				rr := r.Norm()
				if rr < 1e-12 {
					continue
				}
				sum += math.Erfc(alpha*rr) / rr
			}
		}
	}
	twoPiL := 2 * math.Pi / L
	pref := 4 * math.Pi / (L * L * L)
	for hx := -opt.KShell; hx <= opt.KShell; hx++ {
		for hy := -opt.KShell; hy <= opt.KShell; hy++ {
			for hz := -opt.KShell; hz <= opt.KShell; hz++ {
				if hx == 0 && hy == 0 && hz == 0 {
					continue
				}
				k := vec.V3{float64(hx) * twoPiL, float64(hy) * twoPiL, float64(hz) * twoPiL}
				k2 := k.Norm2()
				sum += pref * math.Exp(-k2/(4*alpha*alpha)) * math.Cos(k.Dot(dx)) / k2
			}
		}
	}
	sum -= math.Pi / (alpha * alpha * L * L * L)
	return sum
}

// Lattice holds the cached lattice-sum derivative tensors for the production
// periodic-boundary method.  T_alpha = sum over replica offsets n (with
// max_i |n_i| > WS) of D_alpha(n L), where D_alpha are the derivative
// tensors of 1/r.  Odd orders vanish by symmetry; the order-0 and order-2
// partial sums converge because complete cubic shells are summed.
type Lattice struct {
	Order    int // tensor order (must be >= local order + source order)
	WS       int // well-separated shell: replicas with max|n_i| <= WS are traversed explicitly
	L        float64
	MaxShell int
	T        multipole.DerivTensor
}

var latticeCache sync.Map // map[latticeKey]*Lattice

type latticeKey struct {
	order, ws, maxShell int
	l                   float64
}

// NewLattice computes (or fetches from cache) the lattice tensor of the given
// order for box size L, excluding replicas with max|n_i| <= ws, summing
// complete cubic shells out to maxShell (default 16).
func NewLattice(order, ws int, L float64, maxShell int) *Lattice {
	if maxShell == 0 {
		maxShell = 16
	}
	key := latticeKey{order, ws, maxShell, L}
	if v, ok := latticeCache.Load(key); ok {
		return v.(*Lattice)
	}
	lat := &Lattice{Order: order, WS: ws, L: L, MaxShell: maxShell}
	lat.T = multipole.ZeroDeriv(order)
	scratch := make([]float64, multipole.NumTerms(order))
	for shell := ws + 1; shell <= maxShell; shell++ {
		for nx := -shell; nx <= shell; nx++ {
			for ny := -shell; ny <= shell; ny++ {
				for nz := -shell; nz <= shell; nz++ {
					if maxAbs3(nx, ny, nz) != shell {
						continue
					}
					r := vec.V3{float64(nx) * L, float64(ny) * L, float64(nz) * L}
					multipole.DerivativesInto(r, order, scratch)
					for i := range scratch {
						lat.T.D[i] += scratch[i]
					}
				}
			}
		}
	}
	// Convert the conditionally convergent order-2 components from the
	// shell-summation ("vacuum") convention to the tinfoil convention used
	// by Ewald summation and by cosmological codes: away from the image
	// charges the Ewald kernel satisfies Laplace's equation with the
	// neutralizing background, grad^2 psi = 4 pi / V, while the bare shell
	// sum is harmonic, so the trace of the second-derivative lattice tensor
	// must be shifted by 4 pi / V (split equally over the diagonal by cubic
	// symmetry).  All higher orders are absolutely convergent and agree in
	// both conventions; odd orders vanish by symmetry.
	if order >= 2 {
		t := multipole.Table(order)
		corr := 4 * math.Pi / (3 * L * L * L)
		for _, mi := range []multipole.MultiIndex{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}} {
			lat.T.D[t.Pos[mi]] += corr
		}
	}
	latticeCache.Store(key, lat)
	return lat
}

func maxAbs3(a, b, c int) int {
	m := a
	if m < 0 {
		m = -m
	}
	if b < 0 {
		b = -b
	}
	if c < 0 {
		c = -c
	}
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// ReplicaOffsets returns the explicit image offsets with max|n_i| <= ws,
// excluding the origin, i.e. the 26 (ws=1) or 124 (ws=2) boundary cubes the
// paper traverses explicitly.
func ReplicaOffsets(ws int, L float64) []vec.V3 {
	var out []vec.V3
	for nx := -ws; nx <= ws; nx++ {
		for ny := -ws; ny <= ws; ny++ {
			for nz := -ws; nz <= ws; nz++ {
				if nx == 0 && ny == 0 && nz == 0 {
					continue
				}
				out = append(out, vec.V3{float64(nx) * L, float64(ny) * L, float64(nz) * L})
			}
		}
	}
	return out
}
