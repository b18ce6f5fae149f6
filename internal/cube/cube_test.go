package cube

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// numericCube sums the field of a cube by subdividing it into k^3 point
// masses (midpoint rule); accurate to ~(1/k)^2 away from the surface.
func numericCube(p Prism, x vec.V3, k int) (vec.V3, float64) {
	size := p.Box.Size()
	dm := p.Rho * size[0] * size[1] * size[2] / float64(k*k*k)
	var acc vec.V3
	var pot float64
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			for l := 0; l < k; l++ {
				y := vec.V3{
					p.Box.Lo[0] + (float64(i)+0.5)/float64(k)*size[0],
					p.Box.Lo[1] + (float64(j)+0.5)/float64(k)*size[1],
					p.Box.Lo[2] + (float64(l)+0.5)/float64(k)*size[2],
				}
				d := y.Sub(x)
				r := d.Norm()
				if r == 0 {
					continue
				}
				pot += dm / r
				acc = acc.Add(d.Scale(dm / (r * r * r)))
			}
		}
	}
	return acc, pot
}

func TestCubeFieldOutside(t *testing.T) {
	p := NewCube(vec.V3{0.5, 0.5, 0.5}, 1.0, 2.0)
	for _, x := range []vec.V3{{3, 0.5, 0.5}, {2, 2, 2}, {-1, 0.2, 0.7}} {
		accN, potN := numericCube(p, x, 40)
		acc := p.Accel(x)
		pot := p.Potential(x)
		if acc.Sub(accN).Norm()/accN.Norm() > 2e-3 {
			t.Errorf("accel at %v: %v vs numeric %v", x, acc, accN)
		}
		if math.Abs(pot-potN)/math.Abs(potN) > 2e-3 {
			t.Errorf("potential at %v: %g vs numeric %g", x, pot, potN)
		}
	}
}

func TestCubeFieldInside(t *testing.T) {
	p := NewCube(vec.V3{0, 0, 0}, 2.0, 1.5)
	for _, x := range []vec.V3{{0.3, -0.2, 0.1}, {0.9, 0.9, 0.9}, {0, 0, 0}} {
		accN, _ := numericCube(p, x, 60)
		acc := p.Accel(x)
		if acc.Sub(accN).Norm() > 3e-2*math.Abs(p.Rho)*2 {
			t.Errorf("interior accel at %v: %v vs numeric %v", x, acc, accN)
		}
	}
	// By symmetry the force at the center vanishes.
	if p.Accel(vec.V3{0, 0, 0}).Norm() > 1e-12 {
		t.Error("force at cube center must vanish")
	}
}

func TestCubeFarFieldIsMonopole(t *testing.T) {
	p := NewCube(vec.V3{0, 0, 0}, 1.0, 3.0)
	x := vec.V3{50, 30, 20}
	r := x.Norm()
	m := p.Mass()
	acc := p.Accel(x)
	want := x.Scale(-m / (r * r * r))
	if acc.Sub(want).Norm()/want.Norm() > 1e-4 {
		t.Errorf("far field %v, want monopole %v", acc, want)
	}
}

func TestCubeMomentsMatchNumericalIntegrals(t *testing.T) {
	p := NewCube(vec.V3{0.5, 0.5, 0.5}, 1.0, 2.0)
	e := p.Moments(4, vec.V3{0.5, 0.5, 0.5})
	tab := multipole.Table(4)
	// Monopole = mass; all odd moments vanish; second moments = rho *
	// integral x^2 = rho * L^5/12 per axis.
	if math.Abs(e.M[tab.Pos[multipole.MultiIndex{0, 0, 0}]]-p.Mass()) > 1e-12 {
		t.Error("monopole moment")
	}
	for _, odd := range []multipole.MultiIndex{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}, {3, 0, 0}} {
		if math.Abs(e.M[tab.Pos[odd]]) > 1e-12 {
			t.Errorf("odd moment %v should vanish", odd)
		}
	}
	want := 2.0 * (1.0 / 12.0)
	if math.Abs(e.M[tab.Pos[multipole.MultiIndex{2, 0, 0}]]-want) > 1e-12 {
		t.Errorf("quadrupole moment %g, want %g", e.M[tab.Pos[multipole.MultiIndex{2, 0, 0}]], want)
	}
}

func TestBackgroundSubtractionCancelsUniformLattice(t *testing.T) {
	// A cell filled by a regular lattice of particles minus the uniform cube
	// of the same mean density must have a tiny far field: this is the key
	// cancellation behind Section 2.2.1.
	const nSide = 8
	side := 1.0
	rho := 1.0
	mass := rho * side * side * side / float64(nSide*nSide*nSide)
	center := vec.V3{0.5, 0.5, 0.5}
	e := multipole.NewExpansion(4, center)
	for i := 0; i < nSide; i++ {
		for j := 0; j < nSide; j++ {
			for k := 0; k < nSide; k++ {
				p := vec.V3{
					(float64(i) + 0.5) / nSide,
					(float64(j) + 0.5) / nSide,
					(float64(k) + 0.5) / nSide,
				}
				e.AddParticle(p, mass)
			}
		}
	}
	bg := BackgroundMoments(4, side, rho)
	e.AddExpansion(bg)
	e.FinalizeNorms()

	x := vec.V3{2.5, 2.0, 1.5}
	res := e.Evaluate(x)
	// Compare with the raw lattice's field magnitude.
	raw := multipole.NewExpansion(4, center)
	for i := 0; i < nSide; i++ {
		for j := 0; j < nSide; j++ {
			for k := 0; k < nSide; k++ {
				p := vec.V3{(float64(i) + 0.5) / nSide, (float64(j) + 0.5) / nSide, (float64(k) + 0.5) / nSide}
				raw.AddParticle(p, mass)
			}
		}
	}
	rawRes := raw.Evaluate(x)
	if res.Acc.Norm() > 1e-3*rawRes.Acc.Norm() {
		t.Errorf("background-subtracted far field %g should be tiny compared with raw %g",
			res.Acc.Norm(), rawRes.Acc.Norm())
	}
}

func TestBackgroundAccelMatchesPrism(t *testing.T) {
	box := vec.CubeBox(vec.V3{1, 2, 3}, 0.5)
	x := vec.V3{1.1, 2.2, 3.3}
	a1, p1 := BackgroundAccel(box, 2.5, x)
	pr := Prism{Box: box, Rho: -2.5}
	a2 := pr.Accel(x)
	p2 := pr.Potential(x)
	if a1.Sub(a2).Norm() > 1e-14 || math.Abs(p1-p2) > 1e-14 {
		t.Error("BackgroundAccel must equal the negative-density prism field")
	}
}

// The fused corner pass must reproduce the separate Accel and Potential sums
// bit for bit, at field points in every position relative to the cube.
func TestBackgroundAccelFusedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo, side := vec.V3{1, 2, 3}, 0.5
	box := vec.CubeBox(lo, side)
	points := map[string]vec.V3{
		"outside": {2.7, 1.1, 3.9},
		"inside":  {1.1, 2.2, 3.3},
		"center":  {1.25, 2.25, 3.25},
		"face":    {1.5, 2.2, 3.3},
		"edge":    {1.5, 2.5, 3.1},
		"corner":  {1, 2, 3},
		"aligned": {4, 2, 3}, // outside, on the extension of an edge
	}
	for i := 0; i < 200; i++ {
		points[fmt.Sprintf("random%d", i)] = lo.Add(vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}.Scale(3 * side)).Sub(vec.V3{side, side, side})
	}
	for name, x := range points {
		a, p := BackgroundAccel(box, 2.5, x)
		pr := Prism{Box: box, Rho: -2.5}
		wantA, wantP := pr.Accel(x), pr.Potential(x)
		got := [4]uint64{math.Float64bits(a[0]), math.Float64bits(a[1]), math.Float64bits(a[2]), math.Float64bits(p)}
		want := [4]uint64{math.Float64bits(wantA[0]), math.Float64bits(wantA[1]), math.Float64bits(wantA[2]), math.Float64bits(wantP)}
		if got != want {
			t.Errorf("%s %v: fused (%v, %g), separate (%v, %g)", name, x, a, p, wantA, wantP)
		}
	}
}

// cornerFixture is a background list shaped like a sink group's: a parent
// cell, its eight octants, a neighbour one level up and neighbours one level
// down (one of them ending at -0, beside the parent's +0 face), each under
// every one of 27 replica offsets.
func cornerFixture() (boxes []vec.Box, offs []int32, offsets []vec.V3) {
	negZero := math.Copysign(0, -1)
	cells := []vec.Box{
		vec.CubeBox(vec.V3{0, 0, 0}, 1),
		vec.CubeBox(vec.V3{1, 0, 0}, 2),
		vec.CubeBox(vec.V3{0, -0.25, 0.5}, 0.25),
		{Lo: vec.V3{-0.25, 0, 0}, Hi: vec.V3{negZero, 0.25, 0.25}},
	}
	for oct := 0; oct < 8; oct++ {
		cells = append(cells, vec.CubeBox(vec.V3{float64(oct >> 2), float64(oct >> 1 & 1), float64(oct & 1)}.Scale(0.5), 0.5))
	}
	for i := -1; i <= 1; i++ {
		for j := -1; j <= 1; j++ {
			for k := -1; k <= 1; k++ {
				offsets = append(offsets, vec.V3{float64(i), float64(j), float64(k)}.Scale(4))
			}
		}
	}
	for o := range offsets {
		for _, c := range cells {
			boxes = append(boxes, c)
			offs = append(offs, int32(o))
		}
	}
	return boxes, offs, offsets
}

// Grouped evaluation must reproduce BackgroundAccel box by box, bit for bit,
// at sinks outside the tiling, inside a box, on a shared face, edge and
// corner, and where a corner difference is +0 for one box and -0 for its
// neighbour.
func TestBackgroundCornersMatchPerBox(t *testing.T) {
	boxes, offs, offsets := cornerFixture()
	rng := rand.New(rand.NewSource(5))
	sinks := map[string]vec.V3{
		"outside":  {2.7, -1.3, 1.9},
		"inside":   {0.3, 0.6, 0.1},
		"face":     {0.5, 0.3, 0.7},
		"edge":     {0.5, 0.5, 0.3},
		"corner":   {0.5, 0.5, 0.5},
		"zero":     {0, 0.1, 0.2},
		"neg-zero": {math.Copysign(0, -1), 0.1, 0.2},
	}
	for i := 0; i < 20; i++ {
		sinks[fmt.Sprintf("random%d", i)] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}.Scale(3).Sub(vec.V3{1, 1, 1})
	}
	bits := func(a vec.V3, p float64) [4]uint64 {
		return [4]uint64{math.Float64bits(a[0]), math.Float64bits(a[1]), math.Float64bits(a[2]), math.Float64bits(p)}
	}
	var g BackgroundGroup
	g.Index(boxes, offs)
	if len(g.pts) >= 8*len(boxes) {
		t.Fatalf("%d distinct corners of %d boxes: nothing shared", len(g.pts), len(boxes))
	}
	for name, x := range sinks {
		g.Eval(x, offsets)
		var sumA, wantSumA vec.V3
		var sumP, wantSumP float64
		for i, box := range boxes {
			a, p := g.Box(i, 1.5)
			wa, wp := BackgroundAccel(box, 1.5, x.Sub(offsets[offs[i]]))
			if bits(a, p) != bits(wa, wp) {
				t.Errorf("%s box %d: grouped (%v, %g), per box (%v, %g)", name, i, a, p, wa, wp)
			}
			sumA, sumP = sumA.Add(a), sumP+p
			wantSumA, wantSumP = wantSumA.Add(wa), wantSumP+wp
		}
		if bits(sumA, sumP) != bits(wantSumA, wantSumP) {
			t.Errorf("%s: summed field (%v, %g), per box (%v, %g)", name, sumA, sumP, wantSumA, wantSumP)
		}
	}
}

// A warmed BackgroundGroup reuses its buffers: indexing a list, evaluating a
// sink and summing a box allocate nothing.
func TestBackgroundGroupZeroAllocs(t *testing.T) {
	boxes, offs, offsets := cornerFixture()
	var g BackgroundGroup
	g.Index(boxes, offs)
	g.Eval(vec.V3{0.3, 0.6, 0.1}, offsets)
	for name, f := range map[string]func(){
		"Index": func() { g.Index(boxes, offs) },
		"Eval":  func() { g.Eval(vec.V3{0.3, 0.6, 0.1}, offsets) },
		"Box": func() {
			for i := range boxes {
				a, p := g.Box(i, 1.5)
				benchSink += a[0] + p
			}
		},
	} {
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s: %v allocations per run", name, n)
		}
	}
}

var benchSink float64

// BenchmarkBackgroundGroup evaluates one sink group's background list, per
// box with BackgroundAccel and grouped with BackgroundGroup, and reports the
// time per sink.  The list is the 3x3x3 block of leaf boxes around the
// group's leaf under four replica offsets: 108 boxes, 2.37 distinct corners
// per box and 8 sinks, the shape of a tree.cosmo group list (124 boxes,
// 2.38 corners per box, 8 sinks on average).
func BenchmarkBackgroundGroup(b *testing.B) {
	var boxes []vec.Box
	var offs []int32
	offsets := []vec.V3{{0, 0, 0}, {-4, 0, 0}, {0, -4, 0}, {-4, -4, 0}}
	for o := range offsets {
		for n := 0; n < 27; n++ {
			boxes = append(boxes, vec.CubeBox(vec.V3{float64(n / 9), float64(n / 3 % 3), float64(n % 3)}.Scale(0.5), 0.5))
			offs = append(offs, int32(o))
		}
	}
	rng := rand.New(rand.NewSource(7))
	sinks := make([]vec.V3, 8)
	for i := range sinks {
		sinks[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}.Scale(0.5).Add(vec.V3{0.5, 0.5, 0.5})
	}
	report := func(b *testing.B, cornersPerBox float64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sinks)), "ns/sink")
		b.ReportMetric(cornersPerBox, "corners/box")
	}
	b.Run("per-box", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range sinks {
				for bi, box := range boxes {
					a, p := BackgroundAccel(box, 1, x.Sub(offsets[offs[bi]]))
					benchSink += a[0] + p
				}
			}
		}
		report(b, 8)
	})
	b.Run("grouped", func(b *testing.B) {
		var g BackgroundGroup
		for i := 0; i < b.N; i++ {
			g.Index(boxes, offs)
			for _, x := range sinks {
				g.Eval(x, offsets)
				for bi := range boxes {
					a, p := g.Box(bi, 1)
					benchSink += a[0] + p
				}
			}
		}
		report(b, float64(len(g.pts))/float64(len(boxes)))
	})
}

func BenchmarkBackgroundAccel(b *testing.B) {
	box := vec.CubeBox(vec.V3{1, 2, 3}, 0.5)
	x := vec.V3{2.7, 1.1, 3.9}
	for i := 0; i < b.N; i++ {
		a, p := BackgroundAccel(box, 2.5, x)
		benchSink += a[0] + p
	}
}

// Accel returns the gravitational acceleration (G=1) exerted by the prism on
// a field point at position x.  The formula is the classical corner sum valid
// for field points inside as well as outside the prism; the acceleration
// points toward the mass for positive density.
func (p Prism) Accel(x vec.V3) vec.V3 {
	// Work in the frame where the field point is the origin and the prism
	// spans [x1,x2]x[y1,y2]x[z1,z2].
	x1 := p.Box.Lo[0] - x[0]
	x2 := p.Box.Hi[0] - x[0]
	y1 := p.Box.Lo[1] - x[1]
	y2 := p.Box.Hi[1] - x[1]
	z1 := p.Box.Lo[2] - x[2]
	z2 := p.Box.Hi[2] - x[2]
	xs := [2]float64{x1, x2}
	ys := [2]float64{y1, y2}
	zs := [2]float64{z1, z2}

	var gx, gy, gz float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				sign := 1.0
				if (i+j+k)%2 == 1 {
					sign = -1
				}
				xi, yj, zk := xs[i], ys[j], zs[k]
				r := math.Sqrt(xi*xi + yj*yj + zk*zk)
				// Component along x: y ln(z+r) + z ln(y+r) - x atan(yz/(xr))
				gx += sign * (yj*safeLog(zk+r) + zk*safeLog(yj+r) - xi*safeAtan(yj*zk, xi*r))
				gy += sign * (zk*safeLog(xi+r) + xi*safeLog(zk+r) - yj*safeAtan(zk*xi, yj*r))
				gz += sign * (xi*safeLog(yj+r) + yj*safeLog(xi+r) - zk*safeAtan(xi*yj, zk*r))
			}
		}
	}
	// The corner sum above gives the attraction toward the mass in the
	// convention where acceleration a_c = G rho * sum; positive density
	// pulls the field point toward the prism.
	return vec.V3{gx, gy, gz}.Scale(p.Rho)
}

// Potential returns the kernel sum S = integral rho/|x-y| dV of the prism at
// the field point x.  The physical potential is -G*S.  The formula is the
// Waldvogel corner sum, valid inside and outside.
func (p Prism) Potential(x vec.V3) float64 {
	x1 := p.Box.Lo[0] - x[0]
	x2 := p.Box.Hi[0] - x[0]
	y1 := p.Box.Lo[1] - x[1]
	y2 := p.Box.Hi[1] - x[1]
	z1 := p.Box.Lo[2] - x[2]
	z2 := p.Box.Hi[2] - x[2]
	xs := [2]float64{x1, x2}
	ys := [2]float64{y1, y2}
	zs := [2]float64{z1, z2}

	var u float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				sign := 1.0
				if (i+j+k)%2 == 1 {
					sign = -1
				}
				xi, yj, zk := xs[i], ys[j], zs[k]
				r := math.Sqrt(xi*xi + yj*yj + zk*zk)
				term := xi*yj*safeLog(zk+r) + yj*zk*safeLog(xi+r) + zk*xi*safeLog(yj+r)
				term -= 0.5 * xi * xi * safeAtan(yj*zk, xi*r)
				term -= 0.5 * yj * yj * safeAtan(zk*xi, yj*r)
				term -= 0.5 * zk * zk * safeAtan(xi*yj, zk*r)
				u += sign * term
			}
		}
	}
	// The corner sum above evaluates to the negative of the kernel sum in
	// this sign convention; flip it so the far field approaches +M/r.
	return -u * p.Rho
}
