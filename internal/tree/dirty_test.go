package tree

// This file pins the dirty-set subtree reuse (Options.Dirty) to the
// from-scratch serial reference: for any dirty fraction — none, a few, most,
// all — any drift amplitude and any worker count, the reusing build must be
// BIT-IDENTICAL to buildSerialReference of the same positions, while
// actually copying subtrees whenever anything is clean.

import (
	"fmt"
	"math/rand"
	"testing"

	"twohot/internal/vec"
)

// driftSubset moves the marked particles of pos by a Gaussian of width sigma
// (periodically wrapped) and returns the new positions plus the dirty mask.
func driftSubset(pos []vec.V3, frac, sigma float64, seed int64) ([]vec.V3, []bool) {
	rng := rand.New(rand.NewSource(seed))
	out := append([]vec.V3(nil), pos...)
	dirty := make([]bool, len(pos))
	for i := range out {
		if rng.Float64() >= frac {
			continue
		}
		dirty[i] = true
		out[i] = vec.V3{
			vec.PeriodicWrap(out[i][0]+sigma*rng.NormFloat64(), 1),
			vec.PeriodicWrap(out[i][1]+sigma*rng.NormFloat64(), 1),
			vec.PeriodicWrap(out[i][2]+sigma*rng.NormFloat64(), 1),
		}
	}
	return out, dirty
}

func TestDirtyBuildMatchesScratch(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1500
	}
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[1] // clustered

	for _, rhoBar := range []float64{0, 1.5} {
		for _, tc := range []struct {
			frac, sigma float64
		}{
			{0, 0},       // nothing dirty: the whole tree is one copy
			{0.02, 1e-4}, // near-static partial drift, small steps
			{0.02, 0.3},  // few movers, but they travel across the box
			{0.5, 1e-3},  // half the particles move
			{1, 1e-3},    // everything dirty: reuse must disarm cleanly
		} {
			name := fmt.Sprintf("bg=%v/frac=%g/sigma=%g", rhoBar > 0, tc.frac, tc.sigma)
			t.Run(name, func(t *testing.T) {
				opt := Options{Order: 4, LeafSize: 16, RhoBar: rhoBar, Workers: 1}

				pPos, pMass := cloneInput(in)
				prev, err := Build(pPos, pMass, box, opt)
				if err != nil {
					t.Fatal(err)
				}

				drift, dirty := driftSubset(in.pos, tc.frac, tc.sigma, 7)

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
					incOpt.Dirty = dirty
					got, err := Build(incPos, incMass, box, incOpt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Opt.Dirty != nil {
						t.Fatalf("workers=%d: built tree retains Options.Dirty", w)
					}
					allDirty := tc.frac >= 1
					if !allDirty && got.Stats.ReusedCells == 0 {
						t.Errorf("workers=%d: no subtrees reused at dirty frac %g",
							w, tc.frac)
					}
					if allDirty && got.Stats.ReusedCells != 0 {
						t.Errorf("workers=%d: fully dirty build claims %d reused cells",
							w, got.Stats.ReusedCells)
					}
					if tc.frac == 0 && got.Stats.ReusedCells != ref.NumCells() {
						t.Errorf("workers=%d: static snapshot reused %d of %d cells",
							w, got.Stats.ReusedCells, ref.NumCells())
					}
					for _, seg := range got.Reuse {
						if seg.NumCells <= 0 || int(seg.Root+seg.NumCells) > got.NumCells() ||
							int(seg.PrevRoot+seg.NumCells) > prev.NumCells() {
							t.Fatalf("workers=%d: reuse segment out of range: %+v", w, seg)
						}
						if got.ReuseSource() != prev {
							t.Fatalf("workers=%d: ReuseSource does not name the copy source", w)
						}
					}
					treesEqual(t, ref, got)
				}
			})
		}
	}
}

// TestDirtyBuildNoAliasing makes sure copied expansions never alias the
// previous tree's storage: after a further build through the same scratch
// (which recycles the retained side the source tree used), the copied tree's
// moments must be untouched.
func TestDirtyBuildNoAliasing(t *testing.T) {
	n := 2000
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[1]
	opt := Options{Order: 4, LeafSize: 16, Workers: 1}
	var sc BuildScratch

	pPos, pMass := cloneInput(in)
	sOpt := opt
	sOpt.Scratch = &sc
	prev, err := Build(pPos, pMass, box, sOpt)
	if err != nil {
		t.Fatal(err)
	}

	drift, dirty := driftSubset(in.pos, 0.02, 1e-4, 3)
	incPos := append([]vec.V3(nil), drift...)
	incMass := append([]float64(nil), in.mass...)
	incOpt := opt
	incOpt.Scratch = &sc
	incOpt.Previous = prev
	incOpt.Dirty = dirty
	got, err := Build(incPos, incMass, box, incOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.ReusedCells == 0 {
		t.Fatal("no subtrees reused")
	}
	snapshot := make([]float64, 0, got.NumCells())
	for _, c := range got.Cell {
		snapshot = append(snapshot, c.Exp.M[0])
	}

	// One more build through the same scratch recycles the retained side the
	// copy source (prev) lived on.  Under the scratch contract the two most
	// recent trees — got and the new one — must stay fully valid, so if any
	// of got's copied expansions aliased prev's storage this build clobbers
	// them.
	pos, dirty := driftSubset(drift, 0.02, 1e-4, 11)
	p := append([]vec.V3(nil), pos...)
	m := append([]float64(nil), in.mass...)
	o := opt
	o.Scratch = &sc
	o.Previous = got
	o.Dirty = dirty
	if _, err := Build(p, m, box, o); err != nil {
		t.Fatal(err)
	}
	for i, c := range got.Cell {
		if c.Exp.M[0] != snapshot[i] {
			t.Fatalf("cell %d moments were clobbered by the next build through the shared scratch", i)
		}
	}
}

// TestDirtyBuildChain drives consecutive partial-drift rebuilds, each seeded
// by the one before — the steady state of a block-stepped run — and checks
// every link against a fresh build.
func TestDirtyBuildChain(t *testing.T) {
	n := 2000
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[0]
	pos := append([]vec.V3(nil), in.pos...)
	opt := Options{Order: 2, LeafSize: 8, Workers: 2, RhoBar: 1.5}
	var sc BuildScratch

	pPos, pMass := cloneInput(in)
	sOpt := opt
	sOpt.Scratch = &sc
	prev, err := Build(pPos, pMass, box, sOpt)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 4; step++ {
		var dirty []bool
		pos, dirty = driftSubset(pos, 0.05, 5e-5, int64(step))

		refPos := append([]vec.V3(nil), pos...)
		refMass := append([]float64(nil), in.mass...)
		ref, err := buildSerialReference(refPos, refMass, box, opt)
		if err != nil {
			t.Fatal(err)
		}

		incPos := append([]vec.V3(nil), pos...)
		incMass := append([]float64(nil), in.mass...)
		incOpt := opt
		incOpt.Scratch = &sc
		incOpt.Previous = prev
		incOpt.Dirty = dirty
		got, err := Build(incPos, incMass, box, incOpt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.ReusedCells == 0 {
			t.Fatalf("step %d: no subtrees reused", step)
		}
		treesEqual(t, ref, got)
		prev = got
	}
}

// TestDirtyBuildRejectsIncompatiblePrevious checks the gates of the reuse
// path: a previous tree with different order, leaf size, background density
// or box must not be used as a copy source even when Dirty is supplied.
func TestDirtyBuildRejectsIncompatiblePrevious(t *testing.T) {
	n := 1200
	box := vec.CubeBox(vec.V3{}, 1)
	in := equivInputs(n)[0]
	base := Options{Order: 4, LeafSize: 16, RhoBar: 1.5, Workers: 1}

	pPos, pMass := cloneInput(in)
	prev, err := Build(pPos, pMass, box, base)
	if err != nil {
		t.Fatal(err)
	}
	drift, dirty := driftSubset(in.pos, 0.02, 1e-4, 5)

	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"order", func(o *Options) { o.Order = 2 }},
		{"leafsize", func(o *Options) { o.LeafSize = 8 }},
		{"rhobar", func(o *Options) { o.RhoBar = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.mutate(&opt)

			refPos := append([]vec.V3(nil), drift...)
			refMass := append([]float64(nil), in.mass...)
			ref, err := buildSerialReference(refPos, refMass, box, opt)
			if err != nil {
				t.Fatal(err)
			}

			incPos := append([]vec.V3(nil), drift...)
			incMass := append([]float64(nil), in.mass...)
			incOpt := opt
			incOpt.Previous = prev
			incOpt.Dirty = dirty
			got, err := Build(incPos, incMass, box, incOpt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.ReusedCells != 0 {
				t.Fatalf("incompatible previous tree was used as a copy source (%d cells)",
					got.Stats.ReusedCells)
			}
			treesEqual(t, ref, got)
		})
	}
}
