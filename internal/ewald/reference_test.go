package ewald_test

import (
	"testing"

	"twohot/internal/core"
	"twohot/internal/ewald"
	"twohot/internal/vec"
)

// TestReferenceForcesMomentumConservation sums the periodic Ewald forces
// over all pairs with core.DirectSolver, the repository's one direct Ewald
// summation: the pairwise forces must cancel.
func TestReferenceForcesMomentumConservation(t *testing.T) {
	pos := []vec.V3{{0.1, 0.2, 0.3}, {0.7, 0.4, 0.9}, {0.5, 0.55, 0.1}}
	mass := []float64{1, 2, 3}
	direct := core.DirectSolver{Periodic: true, BoxSize: 1, Ewald: ewald.Options{}}
	res, err := direct.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	var net vec.V3
	for i, a := range res.Acc {
		net = net.Add(a.Scale(mass[i]))
	}
	if net.Norm() > 1e-6 {
		t.Errorf("net momentum change %v should vanish", net)
	}
}
