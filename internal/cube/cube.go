// Package cube provides the homogeneous-cube machinery needed by 2HOT's
// background-subtraction scheme (Section 2.2.1 of the paper):
//
//   - the analytic Newtonian potential and attraction of a homogeneous
//     rectangular parallelepiped at an arbitrary field point (Waldvogel 1976;
//     Seidov & Skvirsky 2000; the classic corner-sum "prism" formula), used
//     to remove the background contribution of the near field, and
//   - the multipole moments of a uniform cube about its own center, which are
//     subtracted from every cell's particle moments so that far interactions
//     act on the density contrast rather than on the always-positive mass.
package cube

import (
	"math"

	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// Prism describes an axis-aligned homogeneous rectangular parallelepiped.
type Prism struct {
	Box vec.Box
	Rho float64 // mass density (may be negative for background subtraction)
}

// NewCube returns a homogeneous cube with the given center, side and density.
func NewCube(center vec.V3, side, rho float64) Prism {
	h := side / 2
	return Prism{
		Box: vec.Box{Lo: center.Sub(vec.V3{h, h, h}), Hi: center.Add(vec.V3{h, h, h})},
		Rho: rho,
	}
}

// Mass returns the total mass of the prism.
func (p Prism) Mass() float64 { return p.Rho * p.Box.Volume() }

// safeLog returns log(x) guarded against the logarithmic corner singularity
// of the prism formulas; the terms it appears in vanish there.
func safeLog(x float64) float64 {
	if x <= 1e-300 {
		return 0
	}
	return math.Log(x)
}

// safeAtan returns atan(num/den), with the convention that a vanishing
// denominator (which only happens when the prefactor of the term vanishes
// too, or at the +-pi/2 limit) is handled via atan2 of the absolute
// magnitude.
func safeAtan(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Copysign(math.Pi/2, num)
	}
	return math.Atan(num / den)
}

// Moments returns the multipole moments of the homogeneous prism about the
// given center, truncated at order p.  For a cube centered on its own center
// only even multi-indices survive.
func (p Prism) Moments(order int, center vec.V3) *multipole.Expansion {
	e := multipole.NewExpansion(order, center)
	t := multipole.Table(order)
	lo := p.Box.Lo.Sub(center)
	hi := p.Box.Hi.Sub(center)
	// Per-dimension monomial integrals I_dim[k] = integral_{lo}^{hi} u^k du.
	ints := [3][]float64{}
	for c := 0; c < 3; c++ {
		v := make([]float64, order+1)
		for k := 0; k <= order; k++ {
			v[k] = (math.Pow(hi[c], float64(k+1)) - math.Pow(lo[c], float64(k+1))) / float64(k+1)
		}
		ints[c] = v
	}
	for i, mi := range t.Idx {
		e.M[i] = p.Rho * ints[0][mi[0]] * ints[1][mi[1]] * ints[2][mi[2]]
	}
	// Absolute moments and bmax for the error bound: the prism's mass is
	// |rho|*V spread within a half-diagonal radius.
	half := p.Box.Size().Scale(0.5)
	bmax := half.Norm()
	e.Bmax = bmax
	am := math.Abs(p.Rho) * p.Box.Volume()
	rp := 1.0
	for n := 0; n <= order+1; n++ {
		e.B[n] += am * rp
		rp *= bmax
	}
	e.Mass = p.Mass()
	return e
}

// BackgroundMoments returns the multipole moments, about the cell center, of
// a uniform cube of density -rhoBar filling a cell of the given side.  These
// are the moments added to every cell in 2HOT's background-subtraction
// scheme; they depend only on the cell size, so the tree caches one set per
// level.
func BackgroundMoments(order int, side, rhoBar float64) *multipole.Expansion {
	c := NewCube(vec.V3{}, side, -rhoBar)
	return c.Moments(order, vec.V3{})
}

// BackgroundAccel returns the acceleration and kernel sum, at field point x,
// of a uniform cube of density -rhoBar occupying cellBox.  This is the
// analytic near-field background term of Figure 2: cells close enough to a
// sink to be opened to the particle level (or empty regions of space that the
// traversal would otherwise ignore) have their background contribution
// removed exactly rather than through a truncated expansion.
//
// It is the classical corner sums for the attraction and for the Waldvogel
// potential (valid for field points inside as well as outside the cube) fused
// into one corner pass: each corner's distance, three logarithms and three
// arctangents appear in both formulas and are evaluated once.  The separate
// formulas, Prism.Accel and Prism.Potential, live in cube_test.go as the
// reference the fused pass is pinned to bit for bit.
func BackgroundAccel(cellBox vec.Box, rhoBar float64, x vec.V3) (vec.V3, float64) {
	rho := -rhoBar
	xs := [2]float64{cellBox.Lo[0] - x[0], cellBox.Hi[0] - x[0]}
	ys := [2]float64{cellBox.Lo[1] - x[1], cellBox.Hi[1] - x[1]}
	zs := [2]float64{cellBox.Lo[2] - x[2], cellBox.Hi[2] - x[2]}

	var gx, gy, gz, u float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				sign := 1.0
				if (i+j+k)%2 == 1 {
					sign = -1
				}
				xi, yj, zk := xs[i], ys[j], zs[k]
				r := math.Sqrt(xi*xi + yj*yj + zk*zk)
				lx, ly, lz := safeLog(xi+r), safeLog(yj+r), safeLog(zk+r)
				ax := safeAtan(yj*zk, xi*r)
				ay := safeAtan(zk*xi, yj*r)
				az := safeAtan(xi*yj, zk*r)
				gx += sign * (yj*lz + zk*ly - xi*ax)
				gy += sign * (zk*lx + xi*lz - yj*ay)
				gz += sign * (xi*ly + yj*lx - zk*az)
				term := xi*yj*lz + yj*zk*lx + zk*xi*ly
				term -= 0.5 * xi * xi * ax
				term -= 0.5 * yj * yj * ay
				term -= 0.5 * zk * zk * az
				u += sign * term
			}
		}
	}
	return vec.V3{gx, gy, gz}.Scale(rho), -u * rho
}
