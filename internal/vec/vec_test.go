package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicAlgebra(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-2, 0.5, 4}
	if got := a.Add(b); got != (V3{-1, 2.5, 7}) {
		t.Errorf("Add: %v", got)
	}
	if got := a.Sub(b); got != (V3{3, 1.5, -1}) {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Dot(b); got != -2+1+12 {
		t.Errorf("Dot: %v", got)
	}
	if a.Scale(2) != (V3{2, 4, 6}) {
		t.Error("Scale")
	}
	if math.Abs(a.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Error("Norm")
	}
}

func TestQuickNormProperties(t *testing.T) {
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) || math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		v := V3{x, y, z}
		// Norm is non-negative and Norm2 = Norm^2 (within roundoff).
		n := v.Norm()
		if n < 0 {
			return false
		}
		if n > 0 && math.Abs(v.Norm2()-n*n)/v.Norm2() > 1e-12 {
			return false
		}
		// Triangle inequality with itself doubled.
		return v.Add(v).Norm() <= 2*n*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoxContainment(t *testing.T) {
	b := CubeBox(V3{0, 0, 0}, 2)
	if !b.Contains(V3{1.99, 0, 1}) {
		t.Error("Contains inside")
	}
	if b.Contains(V3{2, 0, 0}) {
		t.Error("half-open upper bound")
	}
	if b.Volume() != 8 {
		t.Error("volume")
	}
	if b.Center() != (V3{1, 1, 1}) {
		t.Error("center")
	}
}

func TestBoundingBoxAndCubed(t *testing.T) {
	pts := []V3{{0, 0, 0}, {1, 3, 2}, {-1, 0.5, 0.5}}
	b := BoundingBox(pts)
	for _, p := range pts {
		if b.Expand(p) != b { // p outside the closed box
			t.Errorf("bounding box misses %v", p)
		}
	}
	c := b.Cubed(0.01)
	s := c.Size()
	if math.Abs(s[0]-s[1]) > 1e-12 || math.Abs(s[1]-s[2]) > 1e-12 {
		t.Error("Cubed must produce equal sides")
	}
	for _, p := range pts {
		if c.Expand(p) != c {
			t.Errorf("cubed box misses %v", p)
		}
	}
}

func TestPeriodicHelpers(t *testing.T) {
	if got := PeriodicWrap(-0.25, 1); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("PeriodicWrap: %v", got)
	}
	if got := PeriodicWrap(2.5, 1); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("PeriodicWrap: %v", got)
	}
	if got := MinImage(0.9, 1); math.Abs(got+0.1) > 1e-15 {
		t.Errorf("MinImage: %v", got)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 1e6 {
			return true
		}
		w := PeriodicWrap(x, 10)
		return w >= 0 && w < 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
