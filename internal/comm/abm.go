package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// ABM is the Asynchronous Batched Message layer of Section 3.2: an
// active-message abstraction in which requests (batches of 64-bit keys,
// in practice hashed oct-tree cell keys) are shipped to the owning rank,
// processed by an event-driven handler against that rank's read-only data,
// and answered with an opaque reply per key.  Requests to the same
// destination are batched to amortize message overhead, and replies can be
// consumed asynchronously so that tree traversal overlaps communication with
// computation.
//
// The handler runs on a service goroutine of the owning rank concurrently
// with that rank's own computation, so it must only read data that is
// immutable while the ABM is open (the built tree).  The service goroutine
// matches only the ABM tags, so it cannot steal collective messages or
// application point-to-point traffic from the rank's main goroutine.
type ABM struct {
	rank    *Rank
	handler Handler

	wg sync.WaitGroup

	mu      sync.Mutex
	waiters map[uint64]*Future // request id -> future
	nextID  uint64
	failed  error // first service-loop failure; poisons later requests
}

// Handler answers a batch of keys requested by rank src.  It must return one
// reply per key, in order.
type Handler func(src int, keys []uint64) [][]byte

// appendABMRequest appends a request message: the u64 request id, then the
// requested keys, 8 bytes each, to the end of the payload (the frame already
// delimits it, and the envelope already names the requesting rank).
func appendABMRequest(buf []byte, id uint64, keys []uint64) []byte {
	return appendUint64s(binary.LittleEndian.AppendUint64(buf, id), keys)
}

func parseABMRequest(data []byte) (id uint64, keys []uint64, err error) {
	words, err := parseUint64s(data)
	if err != nil || len(words) == 0 {
		return 0, nil, fmt.Errorf("comm: abm request of %d bytes is not an id plus whole keys", len(data))
	}
	return words[0], words[1:], nil
}

// appendABMReply appends a reply message: the u64 id of the request it
// answers, then one block per requested key (appendBlocks).
func appendABMReply(buf []byte, id uint64, replies [][]byte) []byte {
	return appendBlocks(binary.LittleEndian.AppendUint64(buf, id), replies)
}

// parseABMReply reverses appendABMReply; the replies alias data.
func parseABMReply(data []byte) (id uint64, replies [][]byte, err error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("comm: truncated abm reply")
	}
	replies, err = parseBlocks(data[8:])
	return binary.LittleEndian.Uint64(data), replies, err
}

const (
	tagABMRequest = 9000
	tagABMReply   = 9001
	tagABMStop    = 9002
)

// matchABM filters the service goroutine's receives to the ABM tag space.
func matchABM(tag int) bool {
	return tag == tagABMRequest || tag == tagABMReply || tag == tagABMStop
}

// NewABM opens the active-message layer on this rank with the given handler.
// Every rank in the world must open an ABM (with its own handler) before any
// rank issues requests, which is guaranteed by the internal barrier.
func (r *Rank) NewABM(handler Handler) (*ABM, error) {
	a := &ABM{
		rank:    r,
		handler: handler,
		waiters: make(map[uint64]*Future),
	}
	a.wg.Add(1)
	go a.serve()
	if err := r.Barrier(); err != nil {
		a.shutdown(fmt.Errorf("abm open barrier: %w", err))
		return nil, fmt.Errorf("abm open barrier: %w", err)
	}
	return a, nil
}

// serve processes incoming requests and replies until the stop message (or a
// transport failure, which fails every outstanding and future request).
func (a *ABM) serve() {
	defer a.wg.Done()
	for {
		msg, err := a.rank.t.Recv(-1, matchABM, time.Time{})
		if err != nil {
			a.fail(fmt.Errorf("abm service recv: %w", err))
			return
		}
		switch msg.Tag {
		case tagABMRequest:
			id, keys, err := parseABMRequest(msg.Payload)
			if err != nil {
				a.fail(fmt.Errorf("abm request from rank %d: %w", msg.Src, err))
				return
			}
			a.rank.stats.countABM(int64(len(keys)))
			replies := a.handler(msg.Src, keys)
			if err := a.rank.Send(msg.Src, tagABMReply, appendABMReply(nil, id, replies)); err != nil {
				a.fail(fmt.Errorf("abm reply to rank %d: %w", msg.Src, err))
				return
			}
		case tagABMReply:
			id, replies, err := parseABMReply(msg.Payload)
			if err != nil {
				a.fail(fmt.Errorf("abm reply from rank %d: %w", msg.Src, err))
				return
			}
			a.mu.Lock()
			f := a.waiters[id]
			delete(a.waiters, id)
			a.mu.Unlock()
			if f != nil {
				f.data = replies
				close(f.done)
			}
		case tagABMStop:
			return
		}
	}
}

// fail poisons the ABM: every outstanding and future request resolves with
// err instead of blocking on a reply that can no longer arrive.
func (a *ABM) fail(err error) {
	a.mu.Lock()
	if a.failed == nil {
		a.failed = err
	}
	waiters := a.waiters
	a.waiters = make(map[uint64]*Future)
	a.mu.Unlock()
	for _, f := range waiters {
		f.err = err
		close(f.done)
	}
}

// Request enqueues keys destined for rank dst and returns a Future that
// resolves once the request has been answered (or the transport failed).
func (a *ABM) Request(dst int, keys []uint64) (*Future, error) {
	a.mu.Lock()
	if a.failed != nil {
		err := a.failed
		a.mu.Unlock()
		return nil, err
	}
	id := a.nextID
	a.nextID++
	fut := &Future{done: make(chan struct{}), keys: keys}
	a.waiters[id] = fut
	a.mu.Unlock()
	if err := a.rank.Send(dst, tagABMRequest, appendABMRequest(nil, id, keys)); err != nil {
		a.mu.Lock()
		delete(a.waiters, id)
		a.mu.Unlock()
		return nil, fmt.Errorf("abm request to rank %d: %w", dst, err)
	}
	return fut, nil
}

// RequestSync is a convenience wrapper that sends immediately and waits.
func (a *ABM) RequestSync(dst int, keys []uint64) ([][]byte, error) {
	f, err := a.Request(dst, keys)
	if err != nil {
		return nil, err
	}
	data, _, err := f.Wait()
	return data, err
}

// Future resolves to the replies for one batch of keys.
type Future struct {
	done chan struct{} // closed by the service goroutine once data or err is set
	data [][]byte
	keys []uint64
	err  error
}

// Wait blocks until the replies are available and returns them, one per key
// in the order the keys were requested.  It fails when the transport failed
// before the reply arrived.
func (f *Future) Wait() ([][]byte, []uint64, error) {
	<-f.done
	if f.err != nil {
		return nil, f.keys, f.err
	}
	return f.data, f.keys, nil
}

// Close shuts down the service goroutine on every rank.  It must be called
// collectively (all ranks) after all requests have been answered.
func (a *ABM) Close() error {
	if err := a.rank.Barrier(); err != nil {
		a.shutdown(fmt.Errorf("abm close barrier: %w", err))
		return fmt.Errorf("abm close barrier: %w", err)
	}
	a.shutdown(ErrClosed)
	return a.rank.Barrier()
}

// shutdown stops the service goroutine (by a stop message to self) and
// resolves outstanding futures with cause.
func (a *ABM) shutdown(cause error) {
	// The self-send cannot fail on a live transport; if it does the service
	// loop is already dead from the same underlying failure.
	_ = a.rank.Send(a.rank.ID, tagABMStop, nil)
	a.wg.Wait()
	a.fail(cause)
}
