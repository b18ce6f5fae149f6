package parsort

import (
	"sync"
	"sync/atomic"

	"twohot/internal/par"
)

// KV is a packed (key, index) sort record: the Morton/Hilbert key of a
// particle together with its index in the caller's original ordering.  The
// tree build sorts these records instead of permuting an index array through
// an indirect comparison sort, which both removes the pointer-chasing
// comparator and gives the parallel sort a flat, cache-friendly layout.
type KV struct {
	Key uint64
	Idx int32
}

// kvLess orders records by (Key, Idx), with Idx compared as unsigned so the
// comparison path and the radix path (kvByte) agree for every possible bit
// pattern.  The index tie-break makes the order total (indices are
// distinct), so the sorted sequence is unique: every correct sort of the
// same input produces bit-identical output regardless of algorithm, chunking
// or worker count.  This is the canonical particle order the deterministic
// parallel tree build relies on.
func kvLess(a, b KV) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return uint32(a.Idx) < uint32(b.Idx)
}

// kvDigits is the number of radix bytes in the composite (Key, Idx) sort key:
// eight key bytes followed by four index bytes.
const kvDigits = 12

// kvByte extracts radix digit d (most significant first) of the composite
// sort key.
func kvByte(r KV, d int) int {
	if d < 8 {
		return int((r.Key >> uint(56-8*d)) & 0xff)
	}
	return int((uint32(r.Idx) >> uint(24-8*(d-8))) & 0xff)
}

// SortKV sorts records by (Key, Idx) ascending using up to the given number
// of worker goroutines (workers <= 1 sorts serially).  Because the order is
// total, the output is identical for every worker count.
func SortKV(recs []KV, workers int) {
	workers = par.Workers(workers)
	n := len(recs)
	if workers <= 1 || n < parallelSortCutoff {
		americanFlagKV(recs, 0)
		return
	}
	parallelSortKV(recs, workers, 0)
}

// parallelSortCutoff is the array size below which the scatter/merge overhead
// of the parallel sort exceeds its benefit.
const parallelSortCutoff = 1 << 13

// parallelSortKV is an MSD radix sort parallelized over both phases: a
// chunked counting/scatter pass on the byte at digit distributes the records
// into 256 buckets of a scratch array (chunk-ordered within each bucket, so
// even the intermediate state is deterministic), then the buckets are sorted
// independently by workers pulling from an atomic counter and copied back.
// A bucket holding most of the records — the norm on clustered inputs, where
// every key shares its leading bytes — would serialize that last phase, so
// oversized buckets recurse into this parallel sort on the next digit
// instead of being handed to a single worker.
func parallelSortKV(recs []KV, workers, digit int) {
	n := len(recs)
	if workers <= 1 || n < parallelSortCutoff || digit >= kvDigits {
		// digit can only exhaust for duplicate records, which distinct Idx
		// values rule out; the guard keeps the recursion well-founded.
		americanFlagKV(recs, digit)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	nChunks := (n + chunk - 1) / chunk

	// Phase 1: per-chunk histograms of the current byte, one goroutine per
	// chunk.
	counts := make([][256]int, nChunks)
	par.For(nChunks, nChunks, func(first, last int) {
		for c := first; c < last; c++ {
			for _, r := range recs[c*chunk : min((c+1)*chunk, n)] {
				counts[c][kvByte(r, digit)]++
			}
		}
	})

	var total [256]int
	for c := 0; c < nChunks; c++ {
		for b := 0; b < 256; b++ {
			total[b] += counts[c][b]
		}
	}

	// All records in one bucket — every key shares this byte, the norm for
	// the leading digits of clustered input.  Scattering would only copy the
	// array onto itself; move straight to the next digit instead.
	occupied := 0
	for b := 0; b < 256; b++ {
		if total[b] > 0 {
			occupied++
		}
	}
	if occupied == 1 {
		parallelSortKV(recs, workers, digit+1)
		return
	}

	// Bucket start offsets, then per-chunk write cursors within each bucket:
	// chunk c writes bucket b at start[b] + sum of counts[<c][b].
	var start [257]int
	sum := 0
	for b := 0; b < 256; b++ {
		start[b] = sum
		sum += total[b]
	}
	start[256] = sum
	offsets := make([][256]int, nChunks)
	for b := 0; b < 256; b++ {
		off := start[b]
		for c := 0; c < nChunks; c++ {
			offsets[c][b] = off
			off += counts[c][b]
		}
	}

	// Phase 2: parallel scatter into scratch.
	scratch := make([]KV, n)
	par.For(nChunks, nChunks, func(first, last int) {
		for c := first; c < last; c++ {
			cur := offsets[c]
			for _, r := range recs[c*chunk : min((c+1)*chunk, n)] {
				b := kvByte(r, digit)
				scratch[cur[b]] = r
				cur[b]++
			}
		}
	})

	// Phase 3: buckets small enough for one goroutine go to the sort's
	// dynamic pool (bucket sizes follow the key distribution, so equal
	// chunks of buckets would not balance); oversized buckets are sorted
	// afterwards with the full worker set, one at a time, by recursing on the
	// next digit.
	bigCut := n / (2 * workers)
	if bigCut < parallelSortCutoff {
		bigCut = parallelSortCutoff
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= 256 {
					return
				}
				lo, hi := start[b], start[b+1]
				if hi-lo > 0 && hi-lo <= bigCut {
					americanFlagKV(scratch[lo:hi], digit+1)
					copy(recs[lo:hi], scratch[lo:hi])
				}
			}
		}()
	}
	wg.Wait()
	for b := 0; b < 256; b++ {
		lo, hi := start[b], start[b+1]
		if hi-lo > bigCut {
			parallelSortKV(scratch[lo:hi], workers, digit+1)
			copy(recs[lo:hi], scratch[lo:hi])
		}
	}
}

// afsCutoff is the run length at and below which americanFlagKV finishes
// with an insertion sort.
const afsCutoff = 32

// americanFlagKV is the serial in-place MSD radix sort ("American flag sort",
// McIlroy, Bostic & McIlroy) over the composite (Key, Idx) digits.
func americanFlagKV(recs []KV, digit int) {
	n := len(recs)
	if n < 2 {
		return
	}
	if n <= afsCutoff || digit >= kvDigits {
		insertionSortKV(recs)
		return
	}
	var count [256]int
	for _, r := range recs {
		count[kvByte(r, digit)]++
	}
	var start, end [256]int
	sum := 0
	for b := 0; b < 256; b++ {
		start[b] = sum
		sum += count[b]
		end[b] = sum
	}
	next := start
	for b := 0; b < 256; b++ {
		for next[b] < end[b] {
			i := next[b]
			rb := kvByte(recs[i], digit)
			if rb == b {
				next[b]++
				continue
			}
			j := next[rb]
			recs[i], recs[j] = recs[j], recs[i]
			next[rb]++
		}
	}
	for b := 0; b < 256; b++ {
		lo, hi := start[b], end[b]
		if hi-lo > 1 {
			americanFlagKV(recs[lo:hi], digit+1)
		}
	}
}

func insertionSortKV(recs []KV) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i - 1
		for j >= 0 && kvLess(r, recs[j]) {
			recs[j+1] = recs[j]
			j--
		}
		recs[j+1] = r
	}
}
