package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// This file pins the parallel level-by-level BuildUpper to the round-based
// serial reference (buildUpperSerial).  The serial reference creates upper
// cells in map-iteration order, which makes its cell indices — and, one
// level up, the order in which a parent sums its children — nondeterministic
// from run to run, so moments can only be compared to the reference at
// floating-point-reassociation tolerance.  The parallel pass removes that
// wart: it is pinned below to be bit-identical across worker counts and
// across repeated runs.

// upperScenario assembles the post-branch-exchange state of one rank: the
// rank's own distributed tree plus every other rank's branch cells shipped
// through the same encode/decode path the production exchange uses.
func upperScenario(t *testing.T, nRanks, rank, workers int, rhoBar float64) *Distributed {
	t.Helper()
	const n = 3000
	rng := rand.New(rand.NewSource(17))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		c := vec.V3{0.3, 0.5, 0.7}
		if i%3 == 0 {
			c = vec.V3{0.8, 0.2, 0.4}
		}
		pos[i] = vec.V3{
			vec.PeriodicWrap(c[0]+0.08*rng.NormFloat64(), 1),
			vec.PeriodicWrap(c[1]+0.08*rng.NormFloat64(), 1),
			vec.PeriodicWrap(c[2]+0.08*rng.NormFloat64(), 1),
		}
		mass[i] = 1 + rng.Float64()
	}
	box := vec.CubeBox(vec.V3{}, 1)
	probe, err := Build(append([]vec.V3(nil), pos...), append([]float64(nil), mass...), box,
		Options{Order: 2, LeafSize: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Contiguous key ranges, equal particle counts per rank.
	bounds := make([]uint64, nRanks+1)
	bounds[0] = uint64(1) << 63
	bounds[nRanks] = ^uint64(0)
	for r := 1; r < nRanks; r++ {
		bounds[r] = probe.Keys[r*n/nRanks]
	}

	build := func(r int) *Distributed {
		var rp []vec.V3
		var rm []float64
		for i, k := range probe.Keys {
			if k >= bounds[r] && (k < bounds[r+1] || r == nRanks-1) {
				rp = append(rp, probe.Pos[i])
				rm = append(rm, probe.Mass[i])
			}
		}
		d, err := NewDistributed(rp, rm, box,
			Options{Order: 2, LeafSize: 8, Workers: workers, RhoBar: rhoBar, Rank: r},
			bounds[r], bounds[r+1])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	mine := build(rank)
	for r := 0; r < nRanks; r++ {
		if r == rank {
			continue
		}
		other := build(r)
		cells, err := DecodeCells(other.EncodeCells(other.LocalBranches()))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			mine.AddRemoteCell(c)
		}
	}
	return mine
}

// collectUpper returns every cell of the tree keyed by its key.
func collectUpper(d *Distributed) map[keys.Key]*Cell {
	out := make(map[keys.Key]*Cell, len(d.Cell))
	for _, c := range d.Cell {
		out[c.Key] = c
	}
	return out
}

// expansionsClose compares two expansions allowing floating-point
// reassociation noise (the serial reference sums upper-cell children in a
// nondeterministic order); structure and Bmax (a max, order-independent)
// stay exact.
func expansionsClose(t *testing.T, label string, a, b *multipole.Expansion) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: expansion presence differs", label)
	}
	if a == nil {
		return
	}
	if a.P != b.P || a.Center != b.Center || a.Bmax != b.Bmax {
		t.Fatalf("%s: expansion header differs", label)
	}
	const tol = 1e-12
	close := func(x, y float64) bool {
		d := math.Abs(x - y)
		return d <= tol*(math.Abs(x)+math.Abs(y)) || d < 1e-300
	}
	if !close(a.Mass, b.Mass) {
		t.Fatalf("%s: mass differs: %v vs %v", label, a.Mass, b.Mass)
	}
	for i := range a.M {
		if !close(a.M[i], b.M[i]) {
			t.Fatalf("%s: moment M[%d] differs: %v vs %v", label, i, a.M[i], b.M[i])
		}
	}
	for i := range a.B {
		if !close(a.B[i], b.B[i]) {
			t.Fatalf("%s: absolute moment B[%d] differs: %v vs %v", label, i, a.B[i], b.B[i])
		}
	}
	for i := range a.Norms {
		if !close(a.Norms[i], b.Norms[i]) {
			t.Fatalf("%s: Norms[%d] differs: %v vs %v", label, i, a.Norms[i], b.Norms[i])
		}
	}
}

func TestBuildUpperMatchesSerialReference(t *testing.T) {
	for _, rhoBar := range []float64{0, 2.5} {
		for _, workers := range []int{1, 3, 8} {
			name := fmt.Sprintf("bg=%v/workers=%d", rhoBar > 0, workers)
			t.Run(name, func(t *testing.T) {
				const nRanks = 3
				ref := upperScenario(t, nRanks, 1, 1, rhoBar)
				ref.buildUpperSerial()

				got := upperScenario(t, nRanks, 1, workers, rhoBar)
				got.BuildUpper()

				refCells := collectUpper(ref)
				gotCells := collectUpper(got)
				if len(refCells) != len(gotCells) {
					t.Fatalf("cell count differs: serial %d, parallel %d", len(refCells), len(gotCells))
				}
				if ref.Cell[ref.RootIdx].Key != keys.RootKey || got.Cell[got.RootIdx].Key != keys.RootKey {
					t.Fatal("root cell missing after upper build")
				}
				for k, rc := range refCells {
					gc, ok := gotCells[k]
					if !ok {
						t.Fatalf("cell %x missing from parallel tree", uint64(k))
					}
					label := fmt.Sprintf("cell %x", uint64(k))
					if rc.Level != gc.Level || rc.NBodies != gc.NBodies || rc.Owner != gc.Owner ||
						rc.Remote != gc.Remote || rc.Center != gc.Center || rc.Size != gc.Size ||
						rc.ChildMask != gc.ChildMask {
						t.Fatalf("%s: metadata differs:\n  serial %+v\n  parallel %+v", label, rc, gc)
					}
					// Compare the child link sets by key (indices are not
					// comparable across the two implementations).
					for oct := 0; oct < 8; oct++ {
						rHas := rc.ChildIdx[oct] != NoChild
						gHas := gc.ChildIdx[oct] != NoChild
						if rHas != gHas {
							t.Fatalf("%s: child octant %d presence differs", label, oct)
						}
						if rHas && ref.Cell[rc.ChildIdx[oct]].Key != got.Cell[gc.ChildIdx[oct]].Key {
							t.Fatalf("%s: child octant %d links different keys", label, oct)
						}
					}
					expansionsClose(t, label, rc.Exp, gc.Exp)
				}
			})
		}
	}
}

// TestBuildUpperDeterministicAcrossWorkers pins the property the serial
// reference never had: the parallel upper build produces the same tree —
// cell order, links and bit-exact moments — for every worker count and on
// every run.
func TestBuildUpperDeterministicAcrossWorkers(t *testing.T) {
	const nRanks = 3
	mk := func(workers int) *Distributed {
		// The rank-local builds are bit-identical for every worker count
		// (build_equiv_test.go), so only BuildUpper varies here.
		d := upperScenario(t, nRanks, 1, workers, 2.5)
		d.BuildUpper()
		return d
	}
	ref := mk(1)
	for _, workers := range []int{1, 3, 8} {
		got := mk(workers)
		if len(ref.Cell) != len(got.Cell) {
			t.Fatalf("workers=%d: cell count differs: %d vs %d", workers, len(ref.Cell), len(got.Cell))
		}
		if ref.RootIdx != got.RootIdx {
			t.Fatalf("workers=%d: root index differs", workers)
		}
		for i := range ref.Cell {
			a, b := ref.Cell[i], got.Cell[i]
			label := fmt.Sprintf("workers=%d cell %d (key %x)", workers, i, uint64(a.Key))
			if a.Key != b.Key || a.ChildIdx != b.ChildIdx || a.ChildMask != b.ChildMask ||
				a.NBodies != b.NBodies || a.Owner != b.Owner {
				t.Fatalf("%s: metadata differs", label)
			}
			expansionsEqual(t, label, a.Exp, b.Exp)
		}
	}
}

// TestBuildUpperSingleRank checks the degenerate case where the root itself
// is the only branch cell and BuildUpper has nothing to do.
func TestBuildUpperSingleRank(t *testing.T) {
	d := upperScenario(t, 1, 0, 2, 0)
	before := len(d.Cell)
	d.BuildUpper()
	if len(d.Cell) != before {
		t.Fatalf("single-rank upper build created %d cells", len(d.Cell)-before)
	}
	if d.Cell[d.RootIdx].Key != keys.RootKey {
		t.Fatal("root lost")
	}
}

// buildUpperSerial is the original round-based reference implementation of
// BuildUpper, kept verbatim so the regression suite can pin the parallel
// level pass to it.
func (d *Distributed) buildUpperSerial() {
	// Gather all cells that currently have no parent in the table, deepest
	// first.
	for {
		// Find the deepest level that still has an orphan non-root cell.
		orphans := map[keys.Key][]int32{}
		deepest := -1
		for i, c := range d.Cell {
			if c.Key == keys.RootKey {
				continue
			}
			parent := c.Key.Parent()
			if _, ok := d.Hash.Get(parent); ok {
				// Parent exists: make sure the link is recorded.
				pidx, _ := d.Hash.Get(parent)
				p := d.Cell[pidx]
				oct := c.Key.Octant()
				if p.ChildIdx[oct] == NoChild {
					p.ChildIdx[oct] = int32(i)
					p.ChildMask |= 1 << uint(oct)
				}
				continue
			}
			if c.Level > deepest {
				deepest = c.Level
			}
			orphans[parent] = append(orphans[parent], int32(i))
		}
		if len(orphans) == 0 {
			break
		}
		created := false
		for parent, children := range orphans {
			// Only create parents for the deepest orphans this round so that
			// moments propagate level by level.
			if children[0] >= 0 && d.Cell[children[0]].Level != deepest {
				continue
			}
			d.createUpperCell(parent, children)
			created = true
		}
		if !created {
			// All remaining orphans are shallower; loop again with the new
			// deepest level.
			continue
		}
	}
}

// createUpperCell creates one shared upper cell complete with moments; the
// serial reference path uses it round by round.
func (d *Distributed) createUpperCell(key keys.Key, children []int32) {
	idx := d.createUpperShell(key, children)
	d.upperMoments(d.Cell[idx], children)
}
