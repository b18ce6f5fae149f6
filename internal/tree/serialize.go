package tree

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// maxDecodeOrder bounds the multipole order accepted from the wire.  Orders
// beyond multipole.MaxOrder would not just over-allocate: evaluating such an
// expansion panics inside multipole.Table, so a corrupt buffer must be
// rejected here, at decode time.
const maxDecodeOrder = multipole.MaxOrder

// Cells cross a rank boundary — during the branch exchange of the shared upper
// tree and in reply to an ABM child request — as a cell block: zero or more
// records, each a u64 byte length followed by one cell record (DESIGN.md "Wire
// format" has the field list).  There is no leading count, so two blocks
// concatenate into a block and the empty block is zero bytes.

// EncodeCells returns the cell block holding cells, in order.
func (t *Tree) EncodeCells(cells []*Cell) []byte {
	var buf []byte
	for _, c := range cells {
		at := len(buf)
		buf = t.appendCell(append(buf, make([]byte, 8)...), c)
		binary.LittleEndian.PutUint64(buf[at:], uint64(len(buf)-at-8))
	}
	return buf
}

// DecodeCells returns the cells of a block, reading it to exhaustion.  The
// cells are marked Remote so their children are fetched on demand.  Truncated
// or corrupt buffers yield an error, never a partial success or a panic.
func DecodeCells(data []byte) ([]Cell, error) {
	var out []Cell
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("tree: decode cells: cell %d: %w", len(out), io.ErrUnexpectedEOF)
		}
		sz := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if sz > uint64(len(data)) {
			return nil, fmt.Errorf("tree: decode cells: cell %d: size %d exceeds remaining %d bytes", len(out), sz, len(data))
		}
		c, err := decodeCell(data[:sz])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		data = data[sz:]
	}
	return out, nil
}

// appendCell appends one cell record: the cell, its expansion and, for
// leaves, its particle payload.
func (t *Tree) appendCell(buf []byte, c *Cell) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(c.Key))
	buf = appendV3(buf, c.Center)
	buf = appendFloat64s(buf, c.Size)
	buf = le.AppendUint64(buf, uint64(c.Level))
	buf = le.AppendUint64(buf, uint64(c.NBodies))
	var leaf uint8
	if c.Leaf {
		leaf = 1
	}
	buf = append(buf, leaf, c.ChildMask)
	buf = le.AppendUint32(buf, uint32(c.Owner))
	e := c.Exp
	buf = le.AppendUint32(buf, uint32(e.P))
	buf = appendFloat64s(buf, e.M...)
	buf = appendFloat64s(buf, e.B...)
	buf = appendFloat64s(buf, e.Bmax, e.Mass)
	buf = appendFloat64s(buf, e.Norms...)
	if c.Leaf {
		pos, mass := t.LeafParticles(c)
		buf = le.AppendUint64(buf, uint64(len(pos)))
		for _, p := range pos {
			buf = appendV3(buf, p)
		}
		buf = appendFloat64s(buf, mass...)
	}
	return buf
}

func appendFloat64s(buf []byte, v ...float64) []byte {
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func appendV3(buf []byte, v vec.V3) []byte { return appendFloat64s(buf, v[0], v[1], v[2]) }

// cursor consumes little-endian fields from the front of a buffer.  Running
// out of input latches err; every later read then yields zero, so a decoder
// reads a whole fixed-size group and checks err once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if len(c.b) < n {
		c.b, c.err = nil, io.ErrUnexpectedEOF
		return make([]byte, n)
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() uint8      { return c.take(1)[0] }
func (c *cursor) u32() uint32    { return binary.LittleEndian.Uint32(c.take(4)) }
func (c *cursor) u64() uint64    { return binary.LittleEndian.Uint64(c.take(8)) }
func (c *cursor) f64() float64   { return math.Float64frombits(c.u64()) }
func (c *cursor) v3() (v vec.V3) { v[0], v[1], v[2] = c.f64(), c.f64(), c.f64(); return v }

// f64s fills dst, whose length the caller has already checked against the
// remaining input or a fixed cap.
func (c *cursor) f64s(dst []float64) {
	for i := range dst {
		dst[i] = c.f64()
	}
}

// decodeCell reconstructs a cell from one appendCell record.
func decodeCell(data []byte) (Cell, error) {
	r := cursor{b: data}
	var c Cell
	c.Key = keys.Key(r.u64())
	c.Center = r.v3()
	c.Size = r.f64()
	c.Level = int(int64(r.u64()))
	c.NBodies = int(int64(r.u64()))
	c.Leaf = r.u8() == 1
	c.ChildMask = r.u8()
	c.Owner = int(int32(r.u32()))
	p := int32(r.u32())
	c.Remote = true
	if r.err != nil {
		return c, fmt.Errorf("tree: decode cell: %w", r.err)
	}
	if p < 0 || p > maxDecodeOrder {
		return c, fmt.Errorf("tree: decode cell: invalid multipole order %d", p)
	}
	e := multipole.NewExpansion(int(p), c.Center)
	e.Norms = make([]float64, int(p)+1)
	r.f64s(e.M)
	r.f64s(e.B)
	e.Bmax, e.Mass = r.f64(), r.f64()
	r.f64s(e.Norms)
	if r.err != nil {
		return c, fmt.Errorf("tree: decode expansion: %w", r.err)
	}
	c.Exp = e
	for i := range c.ChildIdx {
		c.ChildIdx[i] = NoChild
	}
	if c.Leaf {
		n := int64(r.u64())
		if r.err != nil {
			return c, fmt.Errorf("tree: decode leaf payload: %w", r.err)
		}
		// A V3 + mass is 32 bytes per body: reject counts the remaining
		// buffer cannot possibly hold before allocating (so the reads below
		// cannot run short either).
		if n < 0 || n > int64(len(r.b))/32 {
			return c, fmt.Errorf("tree: decode leaf payload: implausible body count %d", n)
		}
		c.RemotePos = make([]vec.V3, n)
		c.RemoteMass = make([]float64, n)
		for i := range c.RemotePos {
			c.RemotePos[i] = r.v3()
		}
		r.f64s(c.RemoteMass)
	}
	return c, nil
}
