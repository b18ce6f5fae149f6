package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twohot/internal/keys"
	"twohot/internal/vec"
)

func randomParticles(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 1 + rng.Float64()
	}
	return pos, mass
}

func TestHashTableBasics(t *testing.T) {
	h := NewHashTable(4)
	n := 5000
	for i := 0; i < n; i++ {
		h.Put(keys.RootKey.Child(i%8).Child((i/8)%8).Child((i/64)%8)<<uint(3*(i%3)), int32(i))
	}
	if h.Len() == 0 {
		t.Fatal("empty table after puts")
	}
	// Put/Get round trip with distinct keys.
	h2 := NewHashTable(2)
	kset := map[keys.Key]int32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := keys.Key(rng.Uint64() | 1<<63)
		kset[k] = int32(i)
		h2.Put(k, int32(i))
	}
	for k, v := range kset {
		got, ok := h2.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%x) = %d,%v want %d", uint64(k), got, ok, v)
		}
	}
	if _, ok := h2.Get(keys.Key(3)); ok {
		t.Error("found a key that was never stored")
	}
	count := 0
	h2.Range(func(k keys.Key, v int32) bool { count++; return true })
	if count != h2.Len() {
		t.Errorf("Range visited %d, Len %d", count, h2.Len())
	}
}

func TestTreeStructureInvariants(t *testing.T) {
	pos, mass := randomParticles(3000, 2)
	box := vec.BoundingBox(pos).Cubed(1e-3)
	tr, err := Build(pos, mass, box, Options{Order: 2, LeafSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	// Mass conservation.
	total := 0.0
	for _, m := range mass {
		total += m
	}
	if math.Abs(root.Exp.Mass-total)/total > 1e-12 {
		t.Errorf("root mass %g, want %g", root.Exp.Mass, total)
	}
	// Every particle is inside exactly one leaf, and leaves respect LeafSize
	// (or are at max depth).
	covered := 0
	for _, c := range tr.Cell {
		if !c.Leaf || c.Remote {
			continue
		}
		covered += c.NBodies
		if c.NBodies > 10 && c.Level < keys.MaxDepth {
			t.Errorf("leaf with %d bodies exceeds LeafSize", c.NBodies)
		}
		// Particles of the leaf actually lie inside the leaf's box.
		cb := c.Box()
		p, _ := tr.LeafParticles(c)
		for _, x := range p {
			if cb.Expand(x) != cb { // x outside the closed box
				t.Fatalf("particle %v outside its leaf box %v", x, cb)
			}
		}
	}
	if covered != len(pos) {
		t.Errorf("leaves cover %d particles, want %d", covered, len(pos))
	}
	// Every cell's children masses sum to the cell's mass.
	for _, c := range tr.Cell {
		if c.Leaf {
			continue
		}
		sum := 0.0
		for oct := 0; oct < 8; oct++ {
			if ci := c.ChildIdx[oct]; ci != NoChild {
				sum += tr.Cell[ci].Exp.Mass
			}
		}
		if math.Abs(sum-c.Exp.Mass) > 1e-9*total {
			t.Errorf("cell %x: children mass %g vs cell %g", uint64(c.Key), sum, c.Exp.Mass)
		}
	}
	// The hash table finds every cell by key.
	for _, c := range tr.Cell {
		got, ok := tr.CellByKey(c.Key)
		if !ok || got.Key != c.Key {
			t.Fatalf("hash lookup failed for %x", uint64(c.Key))
		}
	}
}

func TestTreeQuickMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		n := 50 + int(seed%400+400)%400
		pos, mass := randomParticles(n, seed)
		box := vec.BoundingBox(pos).Cubed(1e-3)
		tr, err := Build(pos, mass, box, Options{Order: 2, LeafSize: 8})
		if err != nil {
			return false
		}
		total := 0.0
		for _, m := range mass {
			total += m
		}
		return math.Abs(tr.Root().Exp.Mass-total) < 1e-9*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBackgroundSubtractedRootIsNearlyNeutral(t *testing.T) {
	pos, mass := randomParticles(2000, 3)
	box := vec.CubeBox(vec.V3{}, 1)
	rho := 0.0
	for _, m := range mass {
		rho += m
	}
	tr, err := Build(pos, mass, box, Options{Order: 4, LeafSize: 16, RhoBar: rho})
	if err != nil {
		t.Fatal(err)
	}
	// With RhoBar = totalMass/V (V=1 here), the root's delta monopole is 0.
	if math.Abs(tr.Root().Exp.Mass) > 1e-9*rho {
		t.Errorf("delta monopole of the root = %g, want ~0", tr.Root().Exp.Mass)
	}
	if tr.bgByLevel[3] == nil {
		t.Error("background moments for level 3 missing")
	}
}

func TestCellSerializationRoundTrip(t *testing.T) {
	pos, mass := randomParticles(300, 4)
	box := vec.BoundingBox(pos).Cubed(1e-3)
	tr, err := Build(pos, mass, box, Options{Order: 4, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var cells []*Cell
	for _, c := range tr.Cell {
		cells = append(cells, c)
		if len(cells) == 20 {
			break
		}
	}
	blob := tr.EncodeCells(cells)
	decoded, err := DecodeCells(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(cells) {
		t.Fatalf("decoded %d cells, want %d", len(decoded), len(cells))
	}
	for i, d := range decoded {
		c := cells[i]
		if d.Key != c.Key || d.NBodies != c.NBodies || d.Leaf != c.Leaf || d.ChildMask != c.ChildMask {
			t.Errorf("cell %d metadata mismatch", i)
		}
		if math.Abs(d.Exp.Mass-c.Exp.Mass) > 1e-12 {
			t.Errorf("cell %d mass mismatch", i)
		}
		if !d.Remote {
			t.Error("decoded cells must be marked remote")
		}
		if c.Leaf {
			p, m := tr.LeafParticles(c)
			if len(d.RemotePos) != len(p) || len(d.RemoteMass) != len(m) {
				t.Errorf("cell %d leaf payload lost", i)
			}
		}
	}
}

func TestBranchKeysCoverRangeDisjointly(t *testing.T) {
	// Split the key space at an arbitrary body key and verify the branch
	// cells of the two halves are disjoint and cover everything.
	split := uint64(keys.RootKey.Child(3).Child(5).Child(1)) << uint(3*(keys.MaxDepth-3))
	lo := uint64(1) << 63
	hi := ^uint64(0)
	left := BranchKeys(lo, split)
	right := BranchKeys(split, hi)
	seen := map[keys.Key]bool{}
	for _, k := range append(append([]keys.Key{}, left...), right...) {
		if seen[k] {
			t.Fatalf("duplicate branch key %x", uint64(k))
		}
		seen[k] = true
	}
	// No branch on one side may be an ancestor of a branch on the other:
	// their body-key ranges are disjoint.
	for _, a := range left {
		alo, ahi := a.BodyRange()
		for _, b := range right {
			if blo, bhi := b.BodyRange(); alo <= bhi && blo <= ahi {
				t.Fatalf("overlapping branches %x and %x", uint64(a), uint64(b))
			}
		}
	}
}

func TestDistributedMatchesLocalTreeMoments(t *testing.T) {
	// Build two "ranks" by splitting the key-sorted particles in half, then
	// verify that after exchanging branches and building the upper tree, the
	// root moments agree with a single shared tree.
	pos, mass := randomParticles(2000, 5)
	box := vec.BoundingBox(pos).Cubed(1e-3)
	shared, err := Build(append([]vec.V3(nil), pos...), append([]float64(nil), mass...), box, Options{Order: 2, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Split at the median key.
	sortedKeys := shared.Keys
	split := sortedKeys[len(sortedKeys)/2]

	build := func(lo, hi uint64, sel func(k uint64) bool) *Distributed {
		var p []vec.V3
		var m []float64
		for i, k := range sortedKeys {
			if sel(k) {
				p = append(p, shared.Pos[i])
				m = append(m, shared.Mass[i])
			}
		}
		d, err := NewDistributed(p, m, box, Options{Order: 2, LeafSize: 8, Rank: 0}, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d0 := build(uint64(1)<<63, split, func(k uint64) bool { return k < split })
	d1 := build(split, ^uint64(0), func(k uint64) bool { return k >= split })

	// Exchange branches both ways.
	for _, b := range d1.LocalBranches() {
		cells, _ := DecodeCells(d1.EncodeCells([]*Cell{b}))
		d0.AddRemoteCell(cells[0])
	}
	for _, b := range d0.LocalBranches() {
		cells, _ := DecodeCells(d0.EncodeCells([]*Cell{b}))
		d1.AddRemoteCell(cells[0])
	}
	d0.BuildUpper()
	d1.BuildUpper()

	for _, d := range []*Distributed{d0, d1} {
		if math.Abs(d.Root().Exp.Mass-shared.Root().Exp.Mass) > 1e-9*shared.Root().Exp.Mass {
			t.Errorf("distributed root mass %g, shared %g", d.Root().Exp.Mass, shared.Root().Exp.Mass)
		}
		// Compare a low-order moment of the root as well.
		for i := 0; i < 10; i++ {
			if math.Abs(d.Root().Exp.M[i]-shared.Root().Exp.M[i]) > 1e-6*(1+math.Abs(shared.Root().Exp.M[i])) {
				t.Errorf("root moment %d differs: %g vs %g", i, d.Root().Exp.M[i], shared.Root().Exp.M[i])
			}
		}
	}
}

// Range calls fn for every (key, value) pair; iteration order is
// unspecified.
func (h *HashTable) Range(fn func(k keys.Key, v int32) bool) {
	for i, k := range h.keys {
		if k != 0 {
			if !fn(keys.Key(k), h.vals[i]) {
				return
			}
		}
	}
}
