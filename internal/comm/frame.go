package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The TCP transport moves length-prefixed, checksummed frames:
//
//	magic   uint16  frameMagic — stream-alignment sentinel
//	kind    uint8   data | ack | heartbeat | hello
//	src     uint32  sending rank
//	seq     uint64  per-peer reliability sequence (0 for unsequenced kinds)
//	tag     int64   message tag (data frames)
//	plen    uint32  payload length
//	payload [plen]  the message's bytes, exactly as handed to Send
//	crc     uint32  IEEE CRC32 over header+payload
//
// A frame whose checksum fails but whose header parsed cleanly is dropped —
// the stream is still aligned, and the reliability layer retransmits the
// payload.  A bad magic or an implausible length means the stream itself has
// desynchronized, which is unrecoverable for that connection.

const (
	frameMagic      = uint16(0x2B07)
	frameHeaderSize = 2 + 1 + 4 + 8 + 8 + 4
	// maxFramePayload caps plen, the same implausible-size rejection the
	// cell serialization uses: large enough for any particle exchange block,
	// small enough to fail fast on a desynchronized stream.
	maxFramePayload = 1 << 30
)

const (
	kindData      = uint8(1)
	kindAck       = uint8(2)
	kindHeartbeat = uint8(3)
	kindHello     = uint8(4)
)

// frame is one decoded wire frame.
type frame struct {
	kind    uint8
	src     uint32
	seq     uint64
	tag     int64
	payload []byte
}

// errFrameChecksum marks a frame dropped for a checksum mismatch.  The
// connection remains usable: the header framed the payload correctly, so the
// reader is still byte-aligned with the stream.
var errFrameChecksum = errors.New("comm: frame checksum mismatch")

// appendFrame encodes f into buf (wire format above) and returns the
// extended slice.
func appendFrame(buf []byte, f frame) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, f.kind)
	buf = binary.LittleEndian.AppendUint32(buf, f.src)
	buf = binary.LittleEndian.AppendUint64(buf, f.seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.tag))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.payload)))
	buf = append(buf, f.payload...)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// readFrame reads and validates one frame.  An errFrameChecksum return is
// recoverable (skip the frame, keep reading); every other error is a
// connection-fatal desync or I/O failure.
func readFrame(r io.Reader, hdr []byte) (frame, error) {
	if len(hdr) < frameHeaderSize {
		hdr = make([]byte, frameHeaderSize)
	}
	hdr = hdr[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	if magic := binary.LittleEndian.Uint16(hdr[0:]); magic != frameMagic {
		return frame{}, fmt.Errorf("comm: bad frame magic %#04x: stream desynchronized", magic)
	}
	f := frame{
		kind: hdr[2],
		src:  binary.LittleEndian.Uint32(hdr[3:]),
		seq:  binary.LittleEndian.Uint64(hdr[7:]),
		tag:  int64(binary.LittleEndian.Uint64(hdr[15:])),
	}
	if f.kind < kindData || f.kind > kindHello {
		return frame{}, fmt.Errorf("comm: unknown frame kind %d", f.kind)
	}
	plen := binary.LittleEndian.Uint32(hdr[23:])
	if plen > maxFramePayload {
		return frame{}, fmt.Errorf("comm: implausible frame payload length %d", plen)
	}
	body := make([]byte, int(plen)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, fmt.Errorf("comm: short frame body: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(body[plen:])
	h := crc32.NewIEEE()
	h.Write(hdr)
	h.Write(body[:plen])
	if h.Sum32() != wantCRC {
		return frame{}, errFrameChecksum
	}
	f.payload = body[:plen]
	return f, nil
}

// appendBlocks appends a list of byte blocks to buf: a u32 count, then each
// block as a u32 length followed by its bytes.  It is the body of every
// comm-owned message that carries several payloads at once — an ABM reply (one
// block per requested key), the AllgatherBytes fan-out (one block per rank) and
// the hierarchical alltoall's leader-to-leader bundle (one block per
// (source, destination) pair, source-major).
func appendBlocks(buf []byte, blocks [][]byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blocks)))
	for _, b := range blocks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// parseBlocks reverses appendBlocks.  The blocks alias data (zero-length ones
// come back nil).  The count and every length are checked against the
// remaining input before anything is allocated or sliced, and trailing bytes
// are an error.
func parseBlocks(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("comm: truncated block count")
	}
	n := binary.LittleEndian.Uint32(data)
	rest := data[4:]
	if uint64(n)*4 > uint64(len(rest)) {
		return nil, fmt.Errorf("comm: implausible block count %d for %d remaining bytes", n, len(rest))
	}
	out := make([][]byte, n)
	for i := range out {
		if len(rest) < 4 {
			return nil, fmt.Errorf("comm: truncated block length")
		}
		bl := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(bl) > uint64(len(rest)) {
			return nil, fmt.Errorf("comm: implausible block length %d for %d remaining bytes", bl, len(rest))
		}
		if bl > 0 {
			out[i] = rest[:bl:bl]
		}
		rest = rest[bl:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes after %d blocks", len(rest), n)
	}
	return out, nil
}

// appendUint64s appends v as consecutive little-endian u64s; the enclosing
// payload delimits the run (AllgatherUint64 contributions, ABM request keys).
func appendUint64s(buf []byte, v []uint64) []byte {
	for _, u := range v {
		buf = binary.LittleEndian.AppendUint64(buf, u)
	}
	return buf
}

// parseUint64s reverses appendUint64s over the whole of data.
func parseUint64s(data []byte) ([]uint64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("comm: %d bytes are not whole u64s", len(data))
	}
	out := make([]uint64, len(data)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out, nil
}
