package tree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// This file pins the build pipeline to the serial reference: for every worker
// count the built tree must be BIT-IDENTICAL to buildSerialReference — same
// reordered particle arrays, same SortIndex, same cell array in the same
// order, same hash contents, and exactly equal (==, no tolerance) multipole
// moments.

// equivWorkerCounts are the worker counts checked against the serial
// reference.  1 runs the pipeline's tasks one after another; 3 is
// deliberately not a power of two so chunk boundaries never align with
// octant boundaries.
var equivWorkerCounts = []int{1, 2, 3, 8}

// buildSerialReference is the test oracle for every build: the shared
// prologue sorts the particles, and the tree is then built by the plain
// depth-first recursion over the sorted keys — no plan, no arenas, no stitch,
// no dirty-set copy.  Build must reproduce it bit for bit at every worker
// count, from scratch and incrementally.
func buildSerialReference(pos []vec.V3, mass []float64, box vec.Box, opt Options) (*Tree, error) {
	opt.Workers, opt.Previous, opt.Dirty, opt.Scratch = 1, nil, nil, nil
	t, _, err := newTree(pos, mass, box, opt, 0)
	if err != nil {
		return nil, err
	}
	t.RootIdx = t.buildSerial(keys.RootKey, 0, len(pos))
	return t, nil
}

// distributedSerialReference is the oracle for NewDistributed: the same
// prologue, then the plain recursion under each of the rank's branch cells.
func distributedSerialReference(pos []vec.V3, mass []float64, box vec.Box, opt Options, keyLo, keyHi uint64) (*Distributed, error) {
	opt.Workers, opt.Previous, opt.Dirty, opt.Scratch = 1, nil, nil, nil
	t, _, err := newTree(pos, mass, box, opt, 1024)
	if err != nil {
		return nil, err
	}
	d := &Distributed{Tree: t, KeyLo: keyLo, KeyHi: keyHi}
	for _, bk := range BranchKeys(keyLo, keyHi) {
		lo, hi := bk.BodyRange()
		first := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] >= uint64(lo) })
		last := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] > uint64(hi) })
		if last <= first {
			continue
		}
		idx := t.buildSerial(bk, first, last-first)
		if bk == keys.RootKey {
			t.RootIdx = idx
		}
		d.BranchCells = append(d.BranchCells, bk)
	}
	return d, nil
}

// buildSerial constructs the cell covering the key-sorted particle range
// [first, first+count) and its subtree by recursion in pre-order, and
// returns the cell's index.
func (t *Tree) buildSerial(key keys.Key, first, count int) int32 {
	c := t.newCell(key, first, count)
	idx := int32(len(t.Cell))
	t.Cell = append(t.Cell, &c)
	t.Hash.Put(key, idx)
	if count <= t.Opt.LeafSize || key.Level() >= keys.MaxDepth {
		c.Leaf = true
		t.leafMoments(&c)
		return idx
	}
	lo := first
	for oct := 0; oct < 8; oct++ {
		childKey := key.Child(oct)
		hi := lo + t.childUpperBound(childKey, lo, first+count)
		if hi > lo {
			c.ChildIdx[oct] = t.buildSerial(childKey, lo, hi-lo)
			c.ChildMask |= 1 << uint(oct)
		}
		lo = hi
	}
	t.computeInternalMoments(idx)
	return idx
}

// buildInput is a named particle distribution for the equivalence suite.
type buildInput struct {
	name string
	pos  []vec.V3
	mass []float64
}

func equivInputs(n int) []buildInput {
	rng := rand.New(rand.NewSource(99))
	uniform := buildInput{name: "uniform"}
	for i := 0; i < n; i++ {
		uniform.pos = append(uniform.pos, vec.V3{rng.Float64(), rng.Float64(), rng.Float64()})
		uniform.mass = append(uniform.mass, 1+rng.Float64())
	}

	clustered := buildInput{name: "clustered"}
	centers := make([]vec.V3, 5)
	for i := range centers {
		centers[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(len(centers))]
		clustered.pos = append(clustered.pos, vec.V3{
			vec.PeriodicWrap(c[0]+0.03*rng.NormFloat64(), 1),
			vec.PeriodicWrap(c[1]+0.03*rng.NormFloat64(), 1),
			vec.PeriodicWrap(c[2]+0.03*rng.NormFloat64(), 1),
		})
		clustered.mass = append(clustered.mass, 1+rng.Float64())
	}

	// Duplicate positions: many particles share exactly the same key, so the
	// sort can only be deterministic if ties are broken canonically, and some
	// leaves exceed LeafSize all the way down to MaxDepth.  Distinct masses
	// catch any permutation difference among the duplicates.
	dup := buildInput{name: "duplicates"}
	distinct := make([]vec.V3, 40)
	for i := range distinct {
		distinct[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := 0; i < n; i++ {
		dup.pos = append(dup.pos, distinct[rng.Intn(len(distinct))])
		dup.mass = append(dup.mass, float64(i+1))
	}

	return []buildInput{uniform, clustered, dup}
}

func cloneInput(in buildInput) ([]vec.V3, []float64) {
	return append([]vec.V3(nil), in.pos...), append([]float64(nil), in.mass...)
}

// expansionsEqual requires exact float equality on every stored moment.
func expansionsEqual(t *testing.T, label string, a, b *multipole.Expansion) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: expansion presence differs", label)
	}
	if a == nil {
		return
	}
	if a.P != b.P || a.Center != b.Center || a.Mass != b.Mass || a.Bmax != b.Bmax {
		t.Fatalf("%s: expansion header differs: P %d/%d center %v/%v mass %v/%v bmax %v/%v",
			label, a.P, b.P, a.Center, b.Center, a.Mass, b.Mass, a.Bmax, b.Bmax)
	}
	for i := range a.M {
		if a.M[i] != b.M[i] {
			t.Fatalf("%s: moment M[%d] differs: %v vs %v", label, i, a.M[i], b.M[i])
		}
	}
	for i := range a.B {
		if a.B[i] != b.B[i] {
			t.Fatalf("%s: absolute moment B[%d] differs: %v vs %v", label, i, a.B[i], b.B[i])
		}
	}
	if len(a.Norms) != len(b.Norms) {
		t.Fatalf("%s: Norms length differs: %d vs %d", label, len(a.Norms), len(b.Norms))
	}
	for i := range a.Norms {
		if a.Norms[i] != b.Norms[i] {
			t.Fatalf("%s: Norms[%d] differs: %v vs %v", label, i, a.Norms[i], b.Norms[i])
		}
	}
}

// treesEqual asserts that two trees are bit-identical in every observable:
// particle order, sort index, keys, cell layout and moments.
func treesEqual(t *testing.T, ref, got *Tree) {
	t.Helper()
	if len(ref.Pos) != len(got.Pos) {
		t.Fatalf("particle count differs: %d vs %d", len(ref.Pos), len(got.Pos))
	}
	for i := range ref.Pos {
		if ref.Pos[i] != got.Pos[i] || ref.Mass[i] != got.Mass[i] {
			t.Fatalf("sorted particle %d differs: %v/%v vs %v/%v", i, ref.Pos[i], ref.Mass[i], got.Pos[i], got.Mass[i])
		}
		if ref.Keys[i] != got.Keys[i] {
			t.Fatalf("sorted key %d differs: %x vs %x", i, ref.Keys[i], got.Keys[i])
		}
		if ref.SortIndex[i] != got.SortIndex[i] {
			t.Fatalf("SortIndex[%d] differs: %d vs %d", i, ref.SortIndex[i], got.SortIndex[i])
		}
	}
	if ref.NumCells() != got.NumCells() {
		t.Fatalf("cell count differs: %d vs %d", ref.NumCells(), got.NumCells())
	}
	if ref.RootIdx != got.RootIdx {
		t.Fatalf("root index differs: %d vs %d", ref.RootIdx, got.RootIdx)
	}
	for i := range ref.Cell {
		a, b := ref.Cell[i], got.Cell[i]
		label := fmt.Sprintf("cell %d (key %x)", i, uint64(a.Key))
		if a.Key != b.Key || a.Level != b.Level || a.First != b.First || a.NBodies != b.NBodies ||
			a.Leaf != b.Leaf || a.ChildMask != b.ChildMask || a.Owner != b.Owner ||
			a.Center != b.Center || a.Size != b.Size || a.ChildIdx != b.ChildIdx {
			t.Fatalf("%s: metadata differs:\n  ref %+v\n  got %+v", label, a, b)
		}
		expansionsEqual(t, label, a.Exp, b.Exp)
	}
	// The hash table must resolve every key to the same cell index.
	ref.Hash.Range(func(k keys.Key, v int32) bool {
		gv, ok := got.Hash.Get(k)
		if !ok || gv != v {
			t.Fatalf("hash entry %x: ref %d, got %d (present=%v)", uint64(k), v, gv, ok)
		}
		return true
	})
	if ref.Hash.Len() != got.Hash.Len() {
		t.Fatalf("hash length differs: %d vs %d", ref.Hash.Len(), got.Hash.Len())
	}
}

func TestParallelBuildMatchesSerialReference(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 2000
	}
	for _, in := range equivInputs(n) {
		for _, rhoBar := range []float64{0, 1.5} {
			name := in.name
			if rhoBar > 0 {
				name += "-bg"
			}
			t.Run(name, func(t *testing.T) {
				box := vec.CubeBox(vec.V3{}, 1)
				opt := Options{Order: 4, LeafSize: 16, RhoBar: rhoBar}

				refPos, refMass := cloneInput(in)
				ref, err := buildSerialReference(refPos, refMass, box, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range equivWorkerCounts {
					t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
						optW := opt
						optW.Workers = w
						pos, mass := cloneInput(in)
						got, err := Build(pos, mass, box, optW)
						if err != nil {
							t.Fatal(err)
						}
						treesEqual(t, ref, got)
					})
				}
			})
		}
	}
}

// TestParallelBuildDeterministicAcrossRuns guards against scheduling
// sensitivity: repeated parallel builds of the same input must agree exactly
// with each other (not merely with the serial reference).
func TestParallelBuildDeterministicAcrossRuns(t *testing.T) {
	in := equivInputs(3000)[1] // clustered: the least balanced task split
	box := vec.CubeBox(vec.V3{}, 1)
	opt := Options{Order: 2, LeafSize: 8, Workers: 8}
	pos0, mass0 := cloneInput(in)
	first, err := Build(pos0, mass0, box, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		pos, mass := cloneInput(in)
		again, err := Build(pos, mass, box, opt)
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, first, again)
	}
}

// TestParallelBuildTinyInputs exercises the degenerate sizes where the whole
// domain is a single leaf or a single task.
func TestParallelBuildTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := vec.CubeBox(vec.V3{}, 1)
	for _, n := range []int{1, 2, 15, 16, 17, 130} {
		pos := make([]vec.V3, n)
		mass := make([]float64, n)
		for i := range pos {
			pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
			mass[i] = float64(i + 1)
		}
		ref, err := buildSerialReference(append([]vec.V3(nil), pos...), append([]float64(nil), mass...), box,
			Options{Order: 2, LeafSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range append([]int{4}, equivWorkerCounts...) {
			got, err := Build(append([]vec.V3(nil), pos...), append([]float64(nil), mass...), box,
				Options{Order: 2, LeafSize: 16, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			treesEqual(t, ref, got)
		}
	}
}

// TestDistributedBuildWorkerEquivalence pins the rank-local distributed
// build (branch subtrees) to its serial reference as well.
func TestDistributedBuildWorkerEquivalence(t *testing.T) {
	in := equivInputs(4000)[0]
	box := vec.CubeBox(vec.V3{}, 1)

	// Key range covering roughly the middle half of the sorted keys.
	pos, mass := cloneInput(in)
	probe, err := buildSerialReference(pos, mass, box, Options{Order: 2, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	keyLo := probe.Keys[len(probe.Keys)/4]
	keyHi := probe.Keys[3*len(probe.Keys)/4]
	var rp []vec.V3
	var rm []float64
	for i, k := range probe.Keys {
		if k >= keyLo && k < keyHi {
			rp = append(rp, probe.Pos[i])
			rm = append(rm, probe.Mass[i])
		}
	}

	opt := Options{Order: 2, LeafSize: 8}
	ref, err := distributedSerialReference(append([]vec.V3(nil), rp...), append([]float64(nil), rm...), box,
		opt, keyLo, keyHi)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range equivWorkerCounts {
		optW := opt
		optW.Workers = w
		got, err := NewDistributed(append([]vec.V3(nil), rp...), append([]float64(nil), rm...), box,
			optW, keyLo, keyHi)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.BranchCells) != len(got.BranchCells) {
			t.Fatalf("workers=%d: branch count differs: %d vs %d", w, len(ref.BranchCells), len(got.BranchCells))
		}
		for i := range ref.BranchCells {
			if ref.BranchCells[i] != got.BranchCells[i] {
				t.Fatalf("workers=%d: branch %d differs", w, i)
			}
		}
		treesEqual(t, ref.Tree, got.Tree)
	}
}
