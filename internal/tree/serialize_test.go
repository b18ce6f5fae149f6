package tree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// randomWireCell fabricates an arbitrary cell of the kind that crosses the
// wire: internal cells with moments only, leaves with a particle payload.
func randomWireCell(rng *rand.Rand) Cell {
	level := rng.Intn(keys.MaxDepth + 1)
	key := keys.RootKey
	for l := 0; l < level; l++ {
		key = key.Child(rng.Intn(8))
	}
	c := Cell{
		Key:       key,
		Center:    vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
		Size:      rng.Float64() + 1e-6,
		Level:     level,
		NBodies:   rng.Intn(1000),
		Leaf:      rng.Intn(2) == 0,
		ChildMask: uint8(rng.Intn(256)),
		Owner:     rng.Intn(64),
	}
	p := rng.Intn(9)
	e := multipole.NewExpansion(p, c.Center)
	for i := range e.M {
		e.M[i] = rng.NormFloat64()
	}
	for i := range e.B {
		e.B[i] = rng.Float64()
	}
	e.Bmax = rng.Float64()
	e.Mass = rng.NormFloat64()
	e.Norms = make([]float64, p+1)
	for i := range e.Norms {
		e.Norms[i] = rng.Float64()
	}
	c.Exp = e
	if c.Leaf {
		n := rng.Intn(40)
		c.RemotePos = make([]vec.V3, n)
		c.RemoteMass = make([]float64, n)
		for i := 0; i < n; i++ {
			c.RemotePos[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			c.RemoteMass[i] = rng.Float64()
		}
	}
	return c
}

func wireCellsEqual(a, b *Cell) bool {
	if a.Key != b.Key || a.Center != b.Center || a.Size != b.Size || a.Level != b.Level ||
		a.NBodies != b.NBodies || a.Leaf != b.Leaf || a.ChildMask != b.ChildMask || a.Owner != b.Owner {
		return false
	}
	if a.Exp.P != b.Exp.P || a.Exp.Bmax != b.Exp.Bmax || a.Exp.Mass != b.Exp.Mass {
		return false
	}
	for i := range a.Exp.M {
		if a.Exp.M[i] != b.Exp.M[i] {
			return false
		}
	}
	for i := range a.Exp.B {
		if a.Exp.B[i] != b.Exp.B[i] {
			return false
		}
	}
	for i := range a.Exp.Norms {
		if a.Exp.Norms[i] != b.Exp.Norms[i] {
			return false
		}
	}
	if len(a.RemotePos) != len(b.RemotePos) || len(a.RemoteMass) != len(b.RemoteMass) {
		return false
	}
	for i := range a.RemotePos {
		if a.RemotePos[i] != b.RemotePos[i] || a.RemoteMass[i] != b.RemoteMass[i] {
			return false
		}
	}
	return true
}

// TestEncodeDecodeArbitraryCellsRoundTrip is the property-test version of the
// round trip: arbitrary cells, not just ones produced by a particular build.
func TestEncodeDecodeArbitraryCellsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nCells := 1 + rng.Intn(12)
		cells := make([]*Cell, nCells)
		for i := range cells {
			c := randomWireCell(rng)
			cells[i] = &c
		}
		// An empty Tree suffices: remote leaf payloads carry their own data.
		tr := &Tree{}
		decoded, err := DecodeCells(tr.EncodeCells(cells))
		if err != nil || len(decoded) != nCells {
			return false
		}
		for i := range decoded {
			if !decoded[i].Remote || !wireCellsEqual(cells[i], &decoded[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDecodeCellsTruncated verifies the error paths: a prefix of a valid
// block that ends inside a cell must fail cleanly (no panic, no silent
// partial success); one that ends on a cell boundary is itself a block and
// decodes to exactly the cells it holds.
func TestDecodeCellsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := &Tree{}
	var blob []byte
	boundary := map[int]int{0: 0} // prefix length -> cells it holds
	for i := 0; i < 3; i++ {
		c := randomWireCell(rng)
		blob = append(blob, tr.EncodeCells([]*Cell{&c})...)
		boundary[len(blob)] = i + 1
	}
	for cut := 0; cut <= len(blob); cut++ {
		cells, err := DecodeCells(blob[:cut])
		if want, whole := boundary[cut]; whole {
			if err != nil || len(cells) != want {
				t.Fatalf("prefix of %d whole cells decoded to %d cells, err %v", want, len(cells), err)
			}
		} else if err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(blob))
		}
	}
}

// TestCellBlocksConcatenate pins the property the ring branch exchange
// forwards on: the concatenation of two blocks decodes to the cells of the
// first followed by the cells of the second, and the empty block is empty.
func TestCellBlocksConcatenate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := &Tree{}
	var a, b []*Cell
	for i := 0; i < 7; i++ {
		c := randomWireCell(rng)
		if i < 3 {
			a = append(a, &c)
		} else {
			b = append(b, &c)
		}
	}
	if blob := tr.EncodeCells(nil); len(blob) != 0 {
		t.Fatalf("empty block is %d bytes", len(blob))
	}
	joined := append(tr.EncodeCells(a), tr.EncodeCells(b)...)
	if !bytes.Equal(joined, tr.EncodeCells(append(a, b...))) {
		t.Fatal("EncodeCells(a) ‖ EncodeCells(b) differs from EncodeCells(a ++ b)")
	}
	decoded, err := DecodeCells(joined)
	if err != nil {
		t.Fatal(err)
	}
	want := append(a, b...)
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d cells, want %d", len(decoded), len(want))
	}
	for i := range decoded {
		if !wireCellsEqual(want[i], &decoded[i]) {
			t.Fatalf("cell %d changed in the concatenation", i)
		}
	}
}

// TestDecodeCellsCorruptHeaders checks the defensive bounds on the framing
// fields: hostile sizes must error out, not allocate or panic.
func TestDecodeCellsCorruptHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomWireCell(rng)
	tr := &Tree{}
	blob := tr.EncodeCells([]*Cell{&c})

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), blob...)
		mutate(b)
		if _, err := DecodeCells(b); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	corrupt("cell size with the top bit set", func(b []byte) { b[7] = 0x80 })
	corrupt("oversized cell size", func(b []byte) { b[4] = 0x7f })
	corrupt("undersized cell size", func(b []byte) { b[0]-- })
}

// FuzzDecodeCells asserts DecodeCells never panics on arbitrary input; the
// seeds cover a valid encoding and mutations of its framing.
func FuzzDecodeCells(f *testing.F) {
	rng := rand.New(rand.NewSource(10))
	tr := &Tree{}
	var cs []*Cell
	for i := 0; i < 3; i++ {
		c := randomWireCell(rng)
		cs = append(cs, &c)
	}
	valid := tr.EncodeCells(cs)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[40] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := DecodeCells(data)
		if err == nil {
			// Whatever decodes must re-encode without panicking.
			ptrs := make([]*Cell, len(cells))
			for i := range cells {
				ptrs[i] = &cells[i]
			}
			(&Tree{}).EncodeCells(ptrs)
		}
	})
}
