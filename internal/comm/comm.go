package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// World is an in-process communicator spanning NRanks ranks: every rank is a
// goroutine of Run and messages travel through shared-memory mailboxes.  It
// is the reference Transport implementation the process-spanning transports
// (JoinTCP) are pinned against, and the fabric the distributed solver uses
// when Config.Ranks > 1 without a TCP deployment.
type World struct {
	NRanks int

	fabric *chanFabric
	stats  statsSink
}

// Stats counts messages and bytes moved through a communicator, used by the
// Table 2 style breakdowns and the Alltoall benchmarks.  Point-to-point
// counters cover application sends (including the ABM built on them);
// collective counters cover the sequenced messages of Barrier, Allreduce,
// Allgather and Alltoallv.  Bytes are payload lengths as sent — a
// measurement, identical on every fabric.
type Stats struct {
	PointToPointMsgs  int64
	PointToPointBytes int64
	CollectiveCalls   int64
	CollectiveMsgs    int64
	CollectiveBytes   int64
	ABMRequests       int64
	ABMBatches        int64
}

// statsSink is a mutex-guarded Stats accumulator shared by the ranks of a
// world (or owned by a single TCP rank).
type statsSink struct {
	mu sync.Mutex
	s  Stats
}

func (ss *statsSink) countMsg(bytes int) {
	ss.mu.Lock()
	ss.s.PointToPointMsgs++
	ss.s.PointToPointBytes += int64(bytes)
	ss.mu.Unlock()
}

func (ss *statsSink) countCollective(calls, msgs, bytes int) {
	ss.mu.Lock()
	ss.s.CollectiveCalls += int64(calls)
	ss.s.CollectiveMsgs += int64(msgs)
	ss.s.CollectiveBytes += int64(bytes)
	ss.mu.Unlock()
}

func (ss *statsSink) countABM(requests int64) {
	ss.mu.Lock()
	ss.s.ABMRequests += requests
	ss.s.ABMBatches++
	ss.mu.Unlock()
}

func (ss *statsSink) snapshot() Stats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.s
}

// NewWorld creates an in-process communicator with n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{NRanks: n}
	w.fabric = newChanFabric(n)
	return w
}

// Statistics returns a snapshot of the communication counters.
func (w *World) Statistics() Stats { return w.stats.snapshot() }

// Run executes fn on every rank concurrently and waits for all ranks to
// finish, returning the joined errors of the ranks that failed (nil when
// every rank succeeded).  A panic on a rank is recovered into that rank's
// error.  It may be called repeatedly on the same world; rank-local state
// should live in caller-owned per-rank slices.
//
// When a rank returns (or fails), it is marked gone: a peer still waiting on
// a message from it receives a PeerDeadError instead of blocking forever —
// the closed-world guarantee that turns protocol imbalances and rank deaths
// into errors rather than deadlocks.
func (w *World) Run(fn func(r *Rank) error) error {
	w.fabric.reset()
	var wg sync.WaitGroup
	errs := make([]error, w.NRanks)
	for i := 0; i < w.NRanks; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[id] = fmt.Errorf("comm: rank %d panicked: %v", id, p)
				}
				w.fabric.markDone(id, errs[id])
			}()
			errs[id] = fn(&Rank{ID: id, t: w.fabric.transports[id], stats: &w.stats})
		}(i)
	}
	wg.Wait()
	var failed []error
	for id, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("rank %d: %w", id, err))
		}
	}
	return errors.Join(failed...)
}

// --- In-process transport ------------------------------------------------

// chanFabric is the shared-memory message fabric of a World: one mailbox per
// rank plus the liveness table the closed-world detection reads.
type chanFabric struct {
	n          int
	mailboxes  []*mailbox
	transports []*chanTransport

	mu   sync.Mutex
	done []error // non-nil once the rank's fn returned; wraps its error
}

// errRankReturned marks a rank that finished its Run function normally.
var errRankReturned = errors.New("rank function returned")

func newChanFabric(n int) *chanFabric {
	f := &chanFabric{n: n, done: make([]error, n)}
	f.mailboxes = make([]*mailbox, n)
	f.transports = make([]*chanTransport, n)
	for i := 0; i < n; i++ {
		f.mailboxes[i] = newMailbox(f.peerDown)
		f.transports[i] = &chanTransport{fabric: f, self: i}
	}
	return f
}

// reset clears the liveness table for a fresh Run on the same world.
func (f *chanFabric) reset() {
	f.mu.Lock()
	for i := range f.done {
		f.done[i] = nil
	}
	f.mu.Unlock()
}

// markDone records that a rank's fn returned (err non-nil when it failed)
// and wakes every blocked receive so closed-world checks re-evaluate.
func (f *chanFabric) markDone(id int, err error) {
	f.mu.Lock()
	if err != nil {
		f.done[id] = fmt.Errorf("rank failed: %w", err)
	} else {
		f.done[id] = errRankReturned
	}
	f.mu.Unlock()
	for _, m := range f.mailboxes {
		m.wake()
	}
}

// peerDown implements the mailbox liveness view: src >= 0 asks about one
// rank, src < 0 asks whether every rank is gone (the wildcard-receive
// condition; the receiver itself is by construction not gone, so "all done
// but one" can only be satisfied by the caller's own rank).
func (f *chanFabric) peerDown(src int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if src >= 0 {
		return f.done[src]
	}
	live := 0
	for _, d := range f.done {
		if d == nil {
			live++
		}
	}
	if live <= 1 {
		return errors.New("every other rank returned")
	}
	return nil
}

// chanTransport is one rank's endpoint of a chanFabric.
type chanTransport struct {
	fabric *chanFabric
	self   int
}

func (t *chanTransport) Self() int { return t.self }
func (t *chanTransport) N() int    { return t.fabric.n }

func (t *chanTransport) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= t.fabric.n {
		return fmt.Errorf("comm: send to invalid rank %d (world size %d)", dst, t.fabric.n)
	}
	if dst != t.self {
		if reason := t.fabric.peerDown(dst); reason != nil {
			return &PeerDeadError{Rank: dst, Reason: reason.Error()}
		}
	}
	t.fabric.mailboxes[dst].put(envelope{src: t.self, tag: tag, payload: payload})
	return nil
}

func (t *chanTransport) Recv(src int, match func(tag int) bool, deadline time.Time) (Message, error) {
	e, err := t.fabric.mailboxes[t.self].get(t.self, src, match, deadline)
	if err != nil {
		return Message{}, err
	}
	return Message{Src: e.src, Tag: e.tag, Payload: e.payload}, nil
}

func (t *chanTransport) Close() error { return nil }

// --- Rank ----------------------------------------------------------------

// Rank is the per-goroutine (or per-process) handle to a communicator: one
// Transport endpoint plus the collective protocol state.  A Rank's methods
// must be called from one goroutine at a time, except Send, which service
// goroutines (the ABM handler) may call concurrently.
type Rank struct {
	ID int

	t     Transport
	stats *statsSink

	// collSeq sequences the collectives: ranks call them in lockstep (the
	// SPMD contract), so the per-call counter agrees across ranks and keys
	// the internal tag space, preventing crosstalk between consecutive
	// collectives even when ranks race ahead.
	collSeq int64
}

// Join wraps an externally constructed Transport (for example a TCP
// transport from JoinTCP's options, or a test double) as a Rank with its own
// statistics sink.
func Join(t Transport) *Rank {
	return &Rank{ID: t.Self(), t: t, stats: &statsSink{}}
}

// N returns the number of ranks in the world.
func (r *Rank) N() int { return r.t.N() }

// Transport returns the rank's transport endpoint.
func (r *Rank) Transport() Transport { return r.t }

// Statistics returns a snapshot of this rank's communication counters (for
// an in-process World the sink is shared by all its ranks).
func (r *Rank) Statistics() Stats { return r.stats.snapshot() }

// Close closes the underlying transport.  In-process ranks need no close;
// process-spanning ranks must close before exit.
func (r *Rank) Close() error { return r.t.Close() }

// Send delivers payload to rank dst with the given tag.  It does not block
// on the receiver (buffered semantics) and fails when dst is known dead.
func (r *Rank) Send(dst, tag int, payload []byte) error {
	if tag < 0 || tag >= internalTagBase {
		return fmt.Errorf("comm: application tags must be in [0, 2^40); got %d", tag)
	}
	r.stats.countMsg(len(payload))
	return r.t.Send(dst, tag, payload)
}

// Recv blocks until a message from src (or any source if src < 0) with the
// given tag (any application tag if tag < 0) arrives, and returns its
// payload and source.  It fails instead of blocking forever when the
// awaited peer is gone or the transport's default deadline passes.
func (r *Rank) Recv(src, tag int) ([]byte, int, error) {
	return r.RecvDeadline(src, tag, 0)
}

// RecvDeadline is Recv with an explicit timeout (0 = the transport's
// default).
func (r *Rank) RecvDeadline(src, tag int, timeout time.Duration) ([]byte, int, error) {
	var match func(int) bool
	if tag >= 0 {
		match = matchExact(tag)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	msg, err := r.t.Recv(src, match, deadline)
	if err != nil {
		return nil, 0, err
	}
	return msg.Payload, msg.Src, nil
}
