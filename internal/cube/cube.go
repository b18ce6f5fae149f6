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
	"math/bits"

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
	var terms [8][4]float64
	for n := range terms {
		c := corner(cellBox, n)
		terms[n] = cornerTerms(c[0]-x[0], c[1]-x[1], c[2]-x[2])
	}
	return sumCorners(terms[:], &boxCorners, rhoBar)
}

// corner returns corner n = 4i+2j+k of b, where i, j and k pick Lo (0) or
// Hi (1) along x, y and z.
func corner(b vec.Box, n int) vec.V3 {
	c := b.Lo
	for a, bit := range [3]int{4, 2, 1} {
		if n&bit != 0 {
			c[a] = b.Hi[a]
		}
	}
	return c
}

// cornerTerms returns one corner's terms of the fused corner sums, the
// corner lying at (xi, yj, zk) from the field point: the three attraction
// components and the potential.
func cornerTerms(xi, yj, zk float64) [4]float64 {
	r := math.Sqrt(xi*xi + yj*yj + zk*zk)
	lx, ly, lz := safeLog(xi+r), safeLog(yj+r), safeLog(zk+r)
	ax := safeAtan(yj*zk, xi*r)
	ay := safeAtan(zk*xi, yj*r)
	az := safeAtan(xi*yj, zk*r)
	term := xi*yj*lz + yj*zk*lx + zk*xi*ly
	term -= 0.5 * xi * xi * ax
	term -= 0.5 * yj * yj * ay
	term -= 0.5 * zk * zk * az
	return [4]float64{yj*lz + zk*ly - xi*ax, zk*lx + xi*lz - yj*ay, xi*ly + yj*lx - zk*az, term}
}

// boxCorners indexes a box's own eight corner terms.
var boxCorners = [8]int32{0, 1, 2, 3, 4, 5, 6, 7}

// cornerSign is (-1)^(i+j+k) for corner n = 4i+2j+k.
var cornerSign = [8]float64{1, -1, -1, 1, -1, 1, 1, -1}

// sumCorners adds the terms of one box's corners, terms[idx[n]] for corner n
// in i, j, k order with the sign (-1)^(i+j+k), and scales the sums to the
// field of density -rhoBar.
func sumCorners(terms [][4]float64, idx *[8]int32, rhoBar float64) (vec.V3, float64) {
	rho := -rhoBar
	var gx, gy, gz, u float64
	for n, ti := range idx {
		sign := cornerSign[n]
		t := &terms[ti]
		gx += sign * t[0]
		gy += sign * t[1]
		gz += sign * t[2]
		u += sign * t[3]
	}
	return vec.V3{gx, gy, gz}.Scale(rho), -u * rho
}

// BackgroundGroup evaluates BackgroundAccel for every box of one sink
// group's background list at one sink after another.  The boxes of a list
// tile space (a leaf, the empty octants of its parent, their neighbours), so
// most corners are shared by several boxes; each distinct corner's terms are
// evaluated once per sink and every box sums them exactly as BackgroundAccel
// does, so the results are bit-identical.  A BackgroundGroup is reused from
// group to group without allocating once its buffers have grown.
type BackgroundGroup struct {
	slots []int32      // open-addressed hash of pts: position + 1, 0 if empty
	pts   []cornerKey  // the distinct corners
	boxes [][8]int32   // per box, the positions of its corners in pts
	terms [][4]float64 // per distinct corner, its terms at the current sink
}

// cornerKey identifies a corner by replica offset index and the exact bits
// of its coordinates (comparing floats would merge +0 and -0).
type cornerKey struct {
	off     int32
	x, y, z uint64
}

// Index prepares the list of boxes, box b shifted by replica offset index
// offs[b], for Eval and Box.
func (g *BackgroundGroup) Index(boxes []vec.Box, offs []int32) {
	// At most 8 corners per box, at a load factor below 1/2.
	logN := bits.Len(uint(16 * len(boxes)))
	n := 1 << logN
	if cap(g.slots) < n {
		g.slots = make([]int32, n)
	}
	g.slots = g.slots[:n]
	clear(g.slots)
	g.pts = g.pts[:0]
	g.boxes = g.boxes[:0]
	for b, box := range boxes {
		var idx [8]int32
		for c := range idx {
			p := corner(box, c)
			k := cornerKey{offs[b], math.Float64bits(p[0]), math.Float64bits(p[1]), math.Float64bits(p[2])}
			h := (k.x*0x9E3779B97F4A7C15 ^ k.y*0xC2B2AE3D27D4EB4F ^ k.z*0x165667B19E3779F9 ^
				uint64(k.off)*0x27D4EB2F165667C5) >> (64 - logN)
			for g.slots[h] != 0 && g.pts[g.slots[h]-1] != k {
				h = (h + 1) & uint64(n-1)
			}
			if g.slots[h] == 0 {
				g.pts = append(g.pts, k)
				g.slots[h] = int32(len(g.pts))
			}
			idx[c] = g.slots[h] - 1
		}
		g.boxes = append(g.boxes, idx)
	}
}

// Eval evaluates the terms of every distinct corner at sink position x, the
// field point of a corner with offset index o being x.Sub(offsets[o]).
func (g *BackgroundGroup) Eval(x vec.V3, offsets []vec.V3) {
	g.terms = g.terms[:0]
	for _, k := range g.pts {
		xr := x.Sub(offsets[k.off])
		g.terms = append(g.terms, cornerTerms(math.Float64frombits(k.x)-xr[0],
			math.Float64frombits(k.y)-xr[1], math.Float64frombits(k.z)-xr[2]))
	}
}

// Box returns BackgroundAccel of box i at the sink of the last Eval.
func (g *BackgroundGroup) Box(i int, rhoBar float64) (vec.V3, float64) {
	return sumCorners(g.terms, &g.boxes[i], rhoBar)
}
