package ewald

import (
	"math"
	"testing"

	"twohot/internal/multipole"
	"twohot/internal/vec"
)

func TestEwaldIndependentOfAlpha(t *testing.T) {
	// The Ewald sum must not depend on the splitting parameter.
	l := 1.0
	dx := vec.V3{0.31, -0.12, 0.22}
	a1 := Accel(dx, l, Options{Alpha: 2, RealShell: 4, KShell: 8})
	a2 := Accel(dx, l, Options{Alpha: 3, RealShell: 5, KShell: 10})
	if a1.Sub(a2).Norm()/a1.Norm() > 1e-5 {
		t.Errorf("Ewald force depends on alpha: %v vs %v", a1, a2)
	}
	p1 := Potential(dx, l, Options{Alpha: 2, RealShell: 4, KShell: 8})
	p2 := Potential(dx, l, Options{Alpha: 3, RealShell: 5, KShell: 10})
	if math.Abs(p1-p2)/math.Abs(p1) > 1e-5 {
		t.Errorf("Ewald potential depends on alpha: %g vs %g", p1, p2)
	}
}

func TestEwaldShortDistanceLimit(t *testing.T) {
	// At separations much smaller than the box, the Ewald force approaches
	// the isolated Newtonian force.
	l := 1.0
	dx := vec.V3{0.01, 0.005, -0.008}
	a := Accel(dx, l, Options{})
	newton := dx.Scale(-1 / math.Pow(dx.Norm(), 3))
	if a.Sub(newton).Norm()/newton.Norm() > 0.01 {
		t.Errorf("short-distance Ewald force %v differs from Newtonian %v", a, newton)
	}
}

func TestEwaldSymmetry(t *testing.T) {
	l := 1.0
	dx := vec.V3{0.3, 0.1, 0.45}
	a := Accel(dx, l, Options{})
	b := Accel(dx.Scale(-1), l, Options{})
	if a.Add(b).Norm() > 1e-10 {
		t.Errorf("Ewald force must be odd under dx -> -dx")
	}
	// A particle at exactly half the box from another feels zero net force
	// along that axis by symmetry.
	c := Accel(vec.V3{0.5, 0, 0}, l, Options{})
	if math.Abs(c[0]) > 1e-8 {
		t.Errorf("force at half-box separation should vanish by symmetry, got %v", c)
	}
}

func TestLatticeTensorSymmetries(t *testing.T) {
	lat := NewLattice(6, 1, 1.0, 8)
	tab := multipole.Table(6)
	// Odd-order components vanish by inversion symmetry.
	for i, mi := range tab.Idx {
		if mi.Order()%2 == 1 && math.Abs(lat.T.D[i]) > 1e-10 {
			t.Errorf("odd lattice tensor component %v = %g", mi, lat.T.D[i])
		}
	}
	// The order-2 trace equals 4 pi / V in the tinfoil convention.
	trace := lat.T.D[tab.Pos[multipole.MultiIndex{2, 0, 0}]] +
		lat.T.D[tab.Pos[multipole.MultiIndex{0, 2, 0}]] +
		lat.T.D[tab.Pos[multipole.MultiIndex{0, 0, 2}]]
	want := 4 * math.Pi
	if math.Abs(trace-want)/want > 1e-6 {
		t.Errorf("lattice tensor trace %g, want %g", trace, want)
	}
	// Cubic symmetry: the three diagonal components are equal.
	xx := lat.T.D[tab.Pos[multipole.MultiIndex{2, 0, 0}]]
	yy := lat.T.D[tab.Pos[multipole.MultiIndex{0, 2, 0}]]
	if math.Abs(xx-yy) > 1e-8*math.Abs(xx) {
		t.Errorf("cubic symmetry violated: %g vs %g", xx, yy)
	}
}

func TestReplicaOffsets(t *testing.T) {
	if got := len(ReplicaOffsets(1, 2.0)); got != 26 {
		t.Errorf("ws=1 replicas: %d, want 26", got)
	}
	if got := len(ReplicaOffsets(2, 2.0)); got != 124 {
		t.Errorf("ws=2 replicas: %d, want 124 (the paper's boundary cubes)", got)
	}
}
