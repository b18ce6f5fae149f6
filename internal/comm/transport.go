package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Message is the unit of exchange between ranks: a tagged byte payload
// stamped with its source rank.
type Message struct {
	Src, Tag int
	Payload  []byte
}

// Transport is the seam between the communication patterns (point-to-point
// matching, collectives, ABM) and the machinery that actually moves bytes.
// Two implementations ship with the package: the in-process channel/mailbox
// fabric (the reference, NewWorld) and the multi-process TCP transport
// (JoinTCP).  A Rank drives exactly one Transport.
//
// Contract:
//   - Send must not block on the receiver (buffered semantics) and returns
//     an error when dst is known dead or the transport is closed.  It never
//     blocks forever.
//   - Recv blocks until a matching message arrives, the deadline passes
//     (DeadlineError), the matched peer set is known dead (PeerDeadError),
//     or the transport closes (ErrClosed).  A zero deadline means the
//     transport's configured default; transports whose default is zero wait
//     without a time limit but still fail fast on peer death.
//   - Payloads are bytes, and a transport moves them unchanged: the record
//     that crosses the rank boundary owns its encoding (see doc.go for who
//     encodes what), never the transport.  A zero-length payload and a nil
//     one are the same message; receivers test len.  In process the slice
//     crosses by reference, so neither side may mutate a payload after it
//     was sent; across processes it is framed as-is.
type Transport interface {
	// Self returns the local rank id.
	Self() int
	// N returns the world size.
	N() int
	// Send delivers payload to rank dst with the given tag.
	Send(dst, tag int, payload []byte) error
	// Recv returns the next message matching (src, match): src < 0 matches
	// any source, and match (nil = any application tag) filters tags.
	Recv(src int, match func(tag int) bool, deadline time.Time) (Message, error)
	// Close releases the transport's resources.  For process-spanning
	// transports it also announces departure to the peers.
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// DeadlineError reports a receive that timed out before a matching message
// arrived.
type DeadlineError struct {
	Src, Tag int
	Waited   time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: recv (src %d, tag %d) timed out after %v", e.Src, e.Tag, e.Waited)
}

// PeerDeadError reports that a peer rank is gone — its process died, its
// heartbeats lapsed, or (in process) its rank function returned — while a
// matching message was still awaited.  Rank < 0 means "every peer that could
// have matched".
type PeerDeadError struct {
	Rank   int
	Reason string
}

func (e *PeerDeadError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("comm: all candidate peers are gone (%s)", e.Reason)
	}
	return fmt.Sprintf("comm: rank %d is gone (%s)", e.Rank, e.Reason)
}

// internalTagBase is the start of the tag space reserved for the
// collectives' sequenced messages.  A wildcard-tag Recv never matches an
// internal tag, so a concurrently running service goroutine (the ABM) cannot
// steal barrier tokens or reduction fragments from the rank's main
// goroutine.
const internalTagBase = 1 << 40

// matchAppTag is the wildcard matcher: any application (non-internal) tag.
func matchAppTag(tag int) bool { return tag < internalTagBase }

// matchExact returns a matcher for one exact tag (which may itself be an
// internal tag — matching an internal tag explicitly is always allowed).
func matchExact(want int) func(int) bool {
	return func(tag int) bool { return tag == want }
}

// envelope is a queued message.
type envelope struct {
	src, tag int
	payload  []byte
}

// mailbox delivers envelopes to one rank with (src, tag) matching, a
// deadline, and closed-world failure: a receive whose candidate source set
// is known dead returns an error instead of blocking forever.  peerDown
// reports why a given source can no longer send (nil = alive); it is
// consulted only when no pending envelope matches.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []envelope
	closed  error

	// peerDown(src) returns a non-nil reason when rank src can no longer
	// deliver messages here; peerDown(-1) answers for the wildcard — a
	// non-nil reason only when every other rank is down.  Installed by the
	// owning transport.
	peerDown func(src int) error
}

func newMailbox(peerDown func(src int) error) *mailbox {
	m := &mailbox{peerDown: peerDown}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put delivers an envelope.  Delivery to a closed mailbox is dropped.  Every
// fabric delivers through here, so this is where "zero-length is nil" is made
// true for all of them.
func (m *mailbox) put(e envelope) {
	if len(e.payload) == 0 {
		e.payload = nil
	}
	m.mu.Lock()
	if m.closed == nil {
		m.pending = append(m.pending, e)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// close fails every current and future receive with cause.
func (m *mailbox) close(cause error) {
	m.mu.Lock()
	if m.closed == nil {
		m.closed = cause
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// wake re-evaluates every blocked receive (after peer liveness changed).
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// get blocks until an envelope matching (src, match) is available and
// removes it from the queue.  src < 0 matches any source; match nil matches
// any application tag.  It fails with DeadlineError when the deadline (if
// non-zero) passes, with PeerDeadError when every candidate source is down,
// and with the close cause when the mailbox is closed.
func (m *mailbox) get(self, src int, match func(tag int) bool, deadline time.Time) (envelope, error) {
	if match == nil {
		match = matchAppTag
	}
	var timer *time.Timer
	if !deadline.IsZero() {
		// sync.Cond has no timed wait; a timer broadcast bounds the sleep.
		timer = time.AfterFunc(time.Until(deadline), func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.pending {
			if (src < 0 || e.src == src) && match(e.tag) {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				return e, nil
			}
		}
		if m.closed != nil {
			return envelope{}, m.closed
		}
		if err := m.candidatesDown(self, src); err != nil {
			return envelope{}, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return envelope{}, &DeadlineError{Src: src, Tag: -1, Waited: time.Since(start)}
		}
		m.cond.Wait()
	}
}

// candidatesDown reports an error when no candidate source of a receive can
// still deliver: the specific source for src >= 0, every rank but self for
// the wildcard.
func (m *mailbox) candidatesDown(self, src int) error {
	if m.peerDown == nil {
		return nil
	}
	if src == self {
		return nil // a rank can always still send to itself
	}
	if reason := m.peerDown(src); reason != nil {
		return &PeerDeadError{Rank: src, Reason: reason.Error()}
	}
	return nil
}
