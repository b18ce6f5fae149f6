package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"twohot/internal/vec"
)

// This file pins the incremental rebuild (Options.Previous) to the
// from-scratch serial reference: for every drift amplitude — including none
// at all and a complete shuffle that defeats the near-sorted fast path — and
// for every worker count, the rebuilt tree must be BIT-IDENTICAL to
// buildSerialReference of the same positions.

// driftedClone returns a copy of pos with every coordinate perturbed by a
// Gaussian of width sigma (periodically wrapped into the unit box).
func driftedClone(pos []vec.V3, sigma float64, seed int64) []vec.V3 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vec.V3, len(pos))
	for i, p := range pos {
		out[i] = vec.V3{
			vec.PeriodicWrap(p[0]+sigma*rng.NormFloat64(), 1),
			vec.PeriodicWrap(p[1]+sigma*rng.NormFloat64(), 1),
			vec.PeriodicWrap(p[2]+sigma*rng.NormFloat64(), 1),
		}
	}
	return out
}

func TestIncrementalBuildMatchesScratch(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1500
	}
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[1] // clustered

	for _, rhoBar := range []float64{0, 1.5} {
		for _, sigma := range []float64{0, 1e-5, 1e-3, 0.3} {
			name := fmt.Sprintf("bg=%v/sigma=%g", rhoBar > 0, sigma)
			t.Run(name, func(t *testing.T) {
				opt := Options{Order: 4, LeafSize: 16, RhoBar: rhoBar, Workers: 1}

				// Step 0: the previous step's tree.
				pPos, pMass := cloneInput(in)
				prev, err := Build(pPos, pMass, box, opt)
				if err != nil {
					t.Fatal(err)
				}
				if prev.Stats.Reused {
					t.Fatal("from-scratch build claims reuse")
				}

				// Step 1: drifted positions, in the caller's original order.
				// prev.SortIndex maps sorted slots back to that order, so the
				// drift is applied in caller order for both builds.
				drift := driftedClone(in.pos, sigma, 42)

				refPos := append([]vec.V3(nil), drift...)
				refMass := append([]float64(nil), in.mass...)
				ref, err := buildSerialReference(refPos, refMass, box, opt)
				if err != nil {
					t.Fatal(err)
				}

				for _, w := range []int{1, 2, 3, 8} {
					incPos := append([]vec.V3(nil), drift...)
					incMass := append([]float64(nil), in.mass...)
					incOpt := opt
					incOpt.Workers = w
					incOpt.Previous = prev
					got, err := Build(incPos, incMass, box, incOpt)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Stats.Reused {
						t.Fatalf("workers=%d: incremental build did not reuse the previous order", w)
					}
					if got.Opt.Previous != nil {
						t.Fatalf("workers=%d: built tree retains Options.Previous", w)
					}
					if sigma == 0 && (got.Stats.Displaced != 0 || !got.Stats.FastPath) {
						t.Errorf("workers=%d: static snapshot reported displaced=%d fastpath=%v",
							w, got.Stats.Displaced, got.Stats.FastPath)
					}
					if sigma == 1e-5 && !got.Stats.FastPath {
						t.Errorf("workers=%d: near-static snapshot fell back to the radix sort (displaced=%d)",
							w, got.Stats.Displaced)
					}
					treesEqual(t, ref, got)
				}
			})
		}
	}
}

// TestIncrementalBuildRejectsIncompatiblePrevious checks that a previous tree
// of the wrong particle count is ignored rather than trusted.
func TestIncrementalBuildRejectsIncompatiblePrevious(t *testing.T) {
	box := vec.CubeBox(vec.V3{}, 1)
	rng := rand.New(rand.NewSource(3))
	mk := func(n int) ([]vec.V3, []float64) {
		pos := make([]vec.V3, n)
		mass := make([]float64, n)
		for i := range pos {
			pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
			mass[i] = 1
		}
		return pos, mass
	}
	pPos, pMass := mk(500)
	prev, err := Build(pPos, pMass, box, Options{Order: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos, mass := mk(800)
	ref, err := buildSerialReference(append([]vec.V3(nil), pos...), append([]float64(nil), mass...), box, Options{Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(pos, mass, box, Options{Order: 2, Workers: 1, Previous: prev})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Reused {
		t.Error("mismatched Previous was not rejected")
	}
	treesEqual(t, ref, got)
}

// TestIncrementalBuildChain drives several consecutive rebuilds, each seeded
// by the one before — the steady state of the stepping pipeline — and checks
// every link against a fresh build.
func TestIncrementalBuildChain(t *testing.T) {
	n := 2000
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[0]
	pos := append([]vec.V3(nil), in.pos...)
	opt := Options{Order: 2, LeafSize: 8, Workers: 2}

	pPos, pMass := cloneInput(in)
	prev, err := Build(pPos, pMass, box, opt)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 4; step++ {
		pos = driftedClone(pos, 5e-6, int64(step))

		refPos := append([]vec.V3(nil), pos...)
		refMass := append([]float64(nil), in.mass...)
		ref, err := buildSerialReference(refPos, refMass, box, opt)
		if err != nil {
			t.Fatal(err)
		}

		incPos := append([]vec.V3(nil), pos...)
		incMass := append([]float64(nil), in.mass...)
		incOpt := opt
		incOpt.Previous = prev
		got, err := Build(incPos, incMass, box, incOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Stats.Reused || !got.Stats.FastPath {
			t.Fatalf("step %d: reuse=%v fastpath=%v (displaced=%d)",
				step, got.Stats.Reused, got.Stats.FastPath, got.Stats.Displaced)
		}
		treesEqual(t, ref, got)
		prev = got
	}
}
