// Package vec provides small fixed-size vector and bounding-box types used
// throughout the 2HOT reproduction.  All geometry in the code base is carried
// in float64; the interaction kernels downcast to float32 only where the
// paper does (single-precision force evaluation benchmarks).
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-vector of float64.
type V3 [3]float64

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s * a.
func (a V3) Scale(s float64) V3 { return V3{s * a[0], s * a[1], s * a[2]} }

// Dot returns the dot product a·b.
func (a V3) Dot(b V3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Norm2 returns |a|^2.
func (a V3) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V3) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Dist returns |a-b|.
func (a V3) Dist(b V3) float64 { return a.Sub(b).Norm() }

// MaxAbs returns the maximum absolute component (infinity norm).
func (a V3) MaxAbs() float64 {
	m := math.Abs(a[0])
	if v := math.Abs(a[1]); v > m {
		m = v
	}
	if v := math.Abs(a[2]); v > m {
		m = v
	}
	return m
}

// String implements fmt.Stringer.
func (a V3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", a[0], a[1], a[2])
}

// Min returns the component-wise minimum.
func Min(a, b V3) V3 {
	return V3{math.Min(a[0], b[0]), math.Min(a[1], b[1]), math.Min(a[2], b[2])}
}

// Max returns the component-wise maximum.
func Max(a, b V3) V3 {
	return V3{math.Max(a[0], b[0]), math.Max(a[1], b[1]), math.Max(a[2], b[2])}
}

// Box is an axis-aligned bounding box.
type Box struct {
	Lo, Hi V3
}

// UnitBox returns the unit cube [0,1)^3.
func UnitBox() Box { return Box{Lo: V3{0, 0, 0}, Hi: V3{1, 1, 1}} }

// CubeBox returns a cube with the given lower corner and side.
func CubeBox(lo V3, side float64) Box {
	return Box{Lo: lo, Hi: lo.Add(V3{side, side, side})}
}

// Center returns the box center.
func (b Box) Center() V3 { return b.Lo.Add(b.Hi).Scale(0.5) }

// Size returns the box extent per dimension.
func (b Box) Size() V3 { return b.Hi.Sub(b.Lo) }

// MaxSide returns the longest box side.
func (b Box) MaxSide() float64 { return b.Size().MaxAbs() }

// Volume returns the box volume.
func (b Box) Volume() float64 {
	s := b.Size()
	return s[0] * s[1] * s[2]
}

// Contains reports whether p lies in the half-open box [Lo, Hi).
func (b Box) Contains(p V3) bool {
	for i := 0; i < 3; i++ {
		if p[i] < b.Lo[i] || p[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Expand grows the box to include p, returning the result.
func (b Box) Expand(p V3) Box {
	return Box{Lo: Min(b.Lo, p), Hi: Max(b.Hi, p)}
}

// Cubed returns the smallest cube (equal sides) centered on the same center
// that contains the box, padded by the relative amount pad.
func (b Box) Cubed(pad float64) Box {
	side := b.MaxSide() * (1 + pad)
	c := b.Center()
	h := side / 2
	return Box{Lo: c.Sub(V3{h, h, h}), Hi: c.Add(V3{h, h, h})}
}

// BoundingBox returns the bounding box of a set of positions.  It returns the
// unit box when the set is empty.
func BoundingBox(pos []V3) Box {
	if len(pos) == 0 {
		return UnitBox()
	}
	b := Box{Lo: pos[0], Hi: pos[0]}
	for _, p := range pos[1:] {
		b = b.Expand(p)
	}
	return b
}

// PeriodicWrap maps x into [0, L) assuming |x| is at most a few box lengths
// away (the common case after a drift step).
func PeriodicWrap(x, L float64) float64 {
	for x < 0 {
		x += L
	}
	for x >= L {
		x -= L
	}
	return x
}

// MinImage returns the minimum-image separation dx for box size L.
func MinImage(dx, L float64) float64 {
	if dx > L/2 {
		dx -= L
	} else if dx < -L/2 {
		dx += L
	}
	return dx
}

// MinImageV applies MinImage per component.
func MinImageV(d V3, L float64) V3 {
	return V3{MinImage(d[0], L), MinImage(d[1], L), MinImage(d[2], L)}
}

// WrapV applies PeriodicWrap per component.
func WrapV(p V3, L float64) V3 {
	return V3{PeriodicWrap(p[0], L), PeriodicWrap(p[1], L), PeriodicWrap(p[2], L)}
}
