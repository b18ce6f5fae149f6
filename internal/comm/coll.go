package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// The collectives are built on point-to-point messages in the reserved
// internal tag space, so they work identically over every Transport (the
// in-process fabric and TCP).  Each collective call consumes one sequence
// number from the rank's counter; since all ranks call collectives in
// lockstep (the SPMD contract), the counters agree across ranks and the
// sequence-keyed tags isolate consecutive collectives from each other even
// when some ranks race ahead — no barrier separators needed.

// collTag maps (collective sequence, sub-channel) into the internal tag
// space.  The sub-channel distinguishes message roles within one collective
// (barrier rounds, alltoall steps, hierarchical up/inter/down lanes).
func collTag(seq int64, sub int) int {
	if sub < 0 || sub >= 1<<20 {
		panic(fmt.Sprintf("comm: collective sub-channel %d out of range", sub))
	}
	return internalTagBase + int(seq)<<20 + sub
}

func (r *Rank) nextSeq() int64 {
	s := r.collSeq
	r.collSeq++
	return s
}

// isend sends an internal (collective) message, counted separately from the
// application point-to-point statistics.
func (r *Rank) isend(dst, tag int, payload []byte) error {
	r.stats.countCollective(0, 1, len(payload))
	return r.t.Send(dst, tag, payload)
}

// irecv receives an internal message by exact (src, tag) with the
// transport's default deadline.
func (r *Rank) irecv(src, tag int) ([]byte, error) {
	msg, err := r.t.Recv(src, matchExact(tag), time.Time{})
	if err != nil {
		return nil, err
	}
	return msg.Payload, nil
}

// Barrier blocks until all ranks reach it.  It fails (instead of hanging)
// when a participating rank is gone.
func (r *Rank) Barrier() error {
	r.stats.countCollective(1, 0, 0)
	n := r.N()
	if n == 1 {
		return nil
	}
	seq := r.nextSeq()
	// Dissemination barrier: log2(n) rounds of shifted token exchange.  The
	// round index keys the sub-channel; within a round each rank receives
	// from exactly one distinct source, so exact (src, tag) matching holds.
	round := 0
	for d := 1; d < n; d <<= 1 {
		tag := collTag(seq, round)
		if err := r.isend((r.ID+d)%n, tag, nil); err != nil {
			return fmt.Errorf("barrier round %d: %w", round, err)
		}
		if _, err := r.irecv((r.ID-d+n)%n, tag); err != nil {
			return fmt.Errorf("barrier round %d: %w", round, err)
		}
		round++
	}
	return nil
}

// viaRoot is the message schedule of the rooted collectives: every rank sends
// its payload to rank 0 (sub-channel 1), rank 0 combines the payloads — handed
// over in rank order, so a floating-point reduction rounds like the serial
// reference — and sends the result to every rank (sub-channel 2).  Every rank
// returns the result.
func (r *Rank) viaRoot(v []byte, combine func(parts [][]byte) ([]byte, error)) ([]byte, error) {
	r.stats.countCollective(1, 0, 0)
	seq := r.nextSeq()
	up, down := collTag(seq, 1), collTag(seq, 2)
	if r.ID != 0 {
		if err := r.isend(0, up, v); err != nil {
			return nil, fmt.Errorf("gather to root: %w", err)
		}
		return r.irecv(0, down)
	}
	parts := make([][]byte, r.N())
	parts[0] = v
	for src := 1; src < r.N(); src++ {
		p, err := r.irecv(src, up)
		if err != nil {
			return nil, fmt.Errorf("gather from rank %d: %w", src, err)
		}
		parts[src] = p
	}
	result, err := combine(parts)
	if err != nil {
		return nil, err
	}
	for dst := 1; dst < r.N(); dst++ {
		if err := r.isend(dst, down, result); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// AllreduceFloat64 reduces one float64 per rank with op ("sum", "min",
// "max") and returns the result on every rank.  The reduction combines
// contributions in rank order on rank 0, so the result is bitwise
// deterministic for a given rank count.  Each contribution, and the result,
// travels as its 8 IEEE-754 bytes, little-endian.
func (r *Rank) AllreduceFloat64(v float64, op string) (float64, error) {
	result, err := r.viaRoot(appendFloat64(nil, v), func(parts [][]byte) ([]byte, error) {
		out := v
		for src := 1; src < len(parts); src++ {
			x, err := parseFloat64(parts[src])
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", src, err)
			}
			switch op {
			case "min":
				if x < out {
					out = x
				}
			case "max":
				if x > out {
					out = x
				}
			default:
				out += x
			}
		}
		return appendFloat64(nil, out), nil
	})
	if err == nil {
		v, err = parseFloat64(result)
	}
	if err != nil {
		return 0, fmt.Errorf("allreduce float64: %w", err)
	}
	return v, nil
}

func appendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func parseFloat64(data []byte) (float64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("comm: float64 payload of %d bytes", len(data))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}

// AllgatherBytes collects one byte block per rank into a slice indexed by
// rank, returned on every rank: rank 0 fans the gathered blocks out as one
// appendBlocks payload.  The caller must not mutate the result.
func (r *Rank) AllgatherBytes(v []byte) ([][]byte, error) {
	packed, err := r.viaRoot(v, func(parts [][]byte) ([]byte, error) {
		return appendBlocks(nil, parts), nil
	})
	var parts [][]byte
	if err == nil {
		parts, err = parseBlocks(packed)
	}
	if err == nil && len(parts) != r.N() {
		err = fmt.Errorf("%d blocks for %d ranks", len(parts), r.N())
	}
	if err != nil {
		return nil, fmt.Errorf("allgather: %w", err)
	}
	return parts, nil
}

// AllgatherUint64 gathers variable-length uint64 slices from every rank and
// returns the concatenation (in rank order) on every rank.  Each contribution
// travels as 8 little-endian bytes per element.
func (r *Rank) AllgatherUint64(v []uint64) ([]uint64, error) {
	parts, err := r.AllgatherBytes(appendUint64s(nil, v))
	if err != nil {
		return nil, err
	}
	var out []uint64
	for src, p := range parts {
		u, err := parseUint64s(p)
		if err != nil {
			return nil, fmt.Errorf("allgather uint64: rank %d: %w", src, err)
		}
		out = append(out, u...)
	}
	return out, nil
}

// AlltoallAlgorithm names an Alltoallv message schedule.  AlltoallDirect is
// the only one: the pairwise and hierarchical schedules the paper compares
// (Section 3.1) live beside BenchmarkAlltoallVariants in alltoall_test.go.
type AlltoallAlgorithm int

// AlltoallDirect posts every outgoing block eagerly, then receives in source
// order (the idealized library implementation).
const AlltoallDirect AlltoallAlgorithm = 0

// AlltoallvBytes exchanges send[dst] with every destination and returns
// recv[src] by the direct schedule.  algo must be AlltoallDirect; the
// argument has one value and stays because the benchmark module
// (bench/layers.go) passes it.
func (r *Rank) AlltoallvBytes(send [][]byte, algo AlltoallAlgorithm) ([][]byte, error) {
	if len(send) != r.N() {
		return nil, fmt.Errorf("comm: Alltoallv send length %d must equal world size %d", len(send), r.N())
	}
	r.stats.countCollective(1, 0, 0)
	n := r.N()
	tag := collTag(r.nextSeq(), 0)
	for dst := 0; dst < n; dst++ {
		if dst == r.ID {
			continue
		}
		if err := r.isend(dst, tag, send[dst]); err != nil {
			return nil, fmt.Errorf("alltoall direct send to %d: %w", dst, err)
		}
	}
	recv := make([][]byte, n)
	recv[r.ID] = send[r.ID]
	for src := 0; src < n; src++ {
		if src == r.ID {
			continue
		}
		p, err := r.irecv(src, tag)
		if err != nil {
			return nil, fmt.Errorf("alltoall direct recv from %d: %w", src, err)
		}
		recv[src] = p
	}
	return recv, nil
}
