package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{kind: kindData, src: 3, seq: 42, tag: 7, payload: []byte("hello")},
		{kind: kindAck, src: 0, seq: 1},
		{kind: kindHeartbeat, src: 9},
		{kind: kindHello, src: 2},
		{kind: kindData, src: 1, seq: 2, tag: internalTagBase + 12345, payload: make([]byte, 4096)},
	}
	var wire []byte
	for _, f := range frames {
		wire = appendFrame(wire, f)
	}
	rd := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := readFrame(rd, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.kind != want.kind || got.src != want.src || got.seq != want.seq || got.tag != want.tag {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	wire := appendFrame(nil, frame{kind: kindData, src: 1, seq: 5, tag: 3, payload: []byte("payload")})

	// Payload corruption: checksum failure, recoverable.
	bad := append([]byte(nil), wire...)
	bad[frameHeaderSize+2] ^= 0xFF
	if _, err := readFrame(bytes.NewReader(bad), nil); err != errFrameChecksum {
		t.Errorf("payload corruption: got %v, want errFrameChecksum", err)
	}

	// Magic corruption: fatal desync.
	bad = append([]byte(nil), wire...)
	bad[0] ^= 0xFF
	if _, err := readFrame(bytes.NewReader(bad), nil); err == nil || err == errFrameChecksum {
		t.Errorf("magic corruption: got %v, want fatal error", err)
	}

	// Implausible length prefix: fatal, no huge allocation.
	bad = append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(bad[23:], math.MaxUint32)
	if _, err := readFrame(bytes.NewReader(bad), nil); err == nil || err == errFrameChecksum {
		t.Errorf("huge length: got %v, want fatal error", err)
	}

	// Truncated stream: short read error.
	if _, err := readFrame(bytes.NewReader(wire[:len(wire)-3]), nil); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestWireRecordsRoundTrip pins the comm-owned payload records — the block
// list (ABM reply body, allgather fan-out, hierarchical bundle), the ABM
// request and the ABM reply: each parses back to what was appended, with
// zero-length blocks coming back nil.
func TestWireRecordsRoundTrip(t *testing.T) {
	for _, blocks := range [][][]byte{
		nil,
		{nil},
		{[]byte("a"), nil, []byte("ccc"), {}},
		{make([]byte, 70000)},
	} {
		got, err := parseBlocks(appendBlocks(nil, blocks))
		if err != nil {
			t.Fatalf("blocks %q: %v", blocks, err)
		}
		if len(got) != len(blocks) {
			t.Fatalf("blocks %q: parsed %d blocks", blocks, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], blocks[i]) || (len(blocks[i]) == 0 && got[i] != nil) {
				t.Fatalf("blocks %q: block %d parsed as %q", blocks, i, got[i])
			}
		}

		id, replies, err := parseABMReply(appendABMReply(nil, 99, blocks))
		if err != nil || id != 99 || len(replies) != len(blocks) {
			t.Fatalf("abm reply %q: id %d, %d replies, err %v", blocks, id, len(replies), err)
		}
		for i := range replies {
			if !bytes.Equal(replies[i], blocks[i]) {
				t.Fatalf("abm reply %q: reply %d parsed as %q", blocks, i, replies[i])
			}
		}
	}
	for _, keys := range [][]uint64{nil, {5}, {5, 6, math.MaxUint64}} {
		id, got, err := parseABMRequest(appendABMRequest(nil, 1<<60, keys))
		if err != nil || id != 1<<60 || len(got) != len(keys) {
			t.Fatalf("abm request %v: id %d keys %v err %v", keys, id, got, err)
		}
		for i := range got {
			if got[i] != keys[i] {
				t.Fatalf("abm request %v: parsed keys %v", keys, got)
			}
		}
	}
}

// TestWireRecordsRejectMalformed pins the parsers' bounds checks: every
// proper prefix of a valid record, trailing bytes, and hostile counts fail
// with an error before anything is allocated from them.
func TestWireRecordsRejectMalformed(t *testing.T) {
	blocks := appendBlocks(nil, [][]byte{[]byte("abc"), nil, []byte("de")})
	for cut := 0; cut < len(blocks); cut++ {
		if _, err := parseBlocks(blocks[:cut]); err == nil {
			t.Errorf("blocks truncated at %d of %d parsed", cut, len(blocks))
		}
	}
	if _, err := parseBlocks(append(blocks[:len(blocks):len(blocks)], 0)); err == nil {
		t.Error("blocks with a trailing byte parsed")
	}
	huge := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	if _, err := parseBlocks(huge); err == nil {
		t.Error("block count 2^32-1 with no body parsed")
	}
	if _, err := parseBlocks(append(binary.LittleEndian.AppendUint32(nil, 1), huge...)); err == nil {
		t.Error("block length 2^32-1 with no body parsed")
	}
	for _, n := range []int{0, 7, 9, 15} {
		if _, _, err := parseABMRequest(make([]byte, n)); err == nil {
			t.Errorf("%d-byte abm request parsed", n)
		}
	}
	if _, _, err := parseABMReply(make([]byte, 7)); err == nil {
		t.Error("7-byte abm reply parsed")
	}
	if _, _, err := parseABMReply(make([]byte, 8)); err == nil {
		t.Error("abm reply without a block list parsed")
	}
}

// FuzzReadFrame hammers the frame decoder with malformed input: arbitrary
// bytes, truncations, and flipped length prefixes must never panic or
// over-allocate — they fail with an error (or errFrameChecksum).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, frame{kind: kindData, src: 1, seq: 1, tag: 5, payload: []byte("seed")}))
	f.Add(appendFrame(nil, frame{kind: kindHeartbeat, src: 2}))
	long := appendFrame(nil, frame{kind: kindData, src: 0, seq: 9, tag: internalTagBase, payload: make([]byte, 512)})
	f.Add(long)
	f.Add(long[:17])
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		for {
			g, err := readFrame(rd, nil)
			if err != nil {
				if err == errFrameChecksum {
					continue
				}
				return
			}
			// A frame that decodes must re-encode to a parseable frame.
			if len(g.payload) > maxFramePayload {
				t.Fatalf("oversized payload accepted: %d", len(g.payload))
			}
			reenc := appendFrame(nil, g)
			if _, err := readFrame(bytes.NewReader(reenc), nil); err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
		}
	})
}

// FuzzParseBlocks does the same for the block list — the shape of the
// hierarchical bundle, the allgather fan-out and the ABM reply body: whatever
// parses re-encodes to the same bytes.
func FuzzParseBlocks(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendBlocks(nil, nil))
	valid := appendBlocks(nil, [][]byte{[]byte("b"), nil, []byte("block")})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := parseBlocks(data)
		if err != nil {
			return
		}
		if !bytes.Equal(appendBlocks(nil, blocks), data) {
			t.Fatalf("%x parsed but re-encodes differently", data)
		}
	})
}

// FuzzParseABM covers both ABM message parsers on the same input.
func FuzzParseABM(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendABMRequest(nil, 2, []uint64{3, 4}))
	f.Add(appendABMReply(nil, 4, [][]byte{[]byte("d"), nil}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, keys, err := parseABMRequest(data); err == nil {
			if !bytes.Equal(appendABMRequest(nil, id, keys), data) {
				t.Fatalf("request %x parsed but re-encodes differently", data)
			}
		}
		if id, replies, err := parseABMReply(data); err == nil {
			if !bytes.Equal(appendABMReply(nil, id, replies), data) {
				t.Fatalf("reply %x parsed but re-encodes differently", data)
			}
		}
	})
}
