package comm

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions configures one rank of a multi-process TCP world.
type TCPOptions struct {
	// Rank and N identify this process within the world.
	Rank, N int
	// Addrs[i] is the listen address of rank i (host:port), length N.
	Addrs []string

	// DialTimeout bounds the total time spent connecting to each lower
	// peer during the join handshake (ranks start at different times, so
	// dialing retries until the peer's listener is up).  Default 15s.
	DialTimeout time.Duration
	// RecvTimeout is the default Recv deadline (a backstop against protocol
	// bugs; peer death is detected much faster by the liveness monitor).
	// Default 120s; negative disables it.
	RecvTimeout time.Duration
	// HeartbeatInterval is the idle keepalive cadence.  Default 250ms.
	HeartbeatInterval time.Duration
	// LivenessTimeout declares a peer dead when nothing (heartbeats
	// included) has arrived from it for this long.  Default 10 heartbeat
	// intervals.
	LivenessTimeout time.Duration
	// MaxSendAttempts bounds the retransmissions of an unacknowledged
	// frame before the peer is declared dead.  Default 8.
	MaxSendAttempts int
	// RetryBase is the first retransmission backoff; attempt k waits
	// RetryBase<<(k-1) plus deterministic jitter.  Default 25ms.
	RetryBase time.Duration

	// Chaos, when non-nil, injects seeded deterministic faults into
	// first-attempt outgoing frames (see ChaosOptions).
	Chaos *ChaosOptions
}

func (o *TCPOptions) defaults() error {
	if o.N < 1 || o.Rank < 0 || o.Rank >= o.N {
		return fmt.Errorf("comm: invalid rank %d of %d", o.Rank, o.N)
	}
	if len(o.Addrs) != o.N {
		return fmt.Errorf("comm: %d addresses for %d ranks", len(o.Addrs), o.N)
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.RecvTimeout == 0 {
		o.RecvTimeout = 120 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.LivenessTimeout <= 0 {
		o.LivenessTimeout = 10 * o.HeartbeatInterval
	}
	if o.MaxSendAttempts <= 0 {
		o.MaxSendAttempts = 8
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	return nil
}

// JoinTCP connects this process into an N-rank TCP world and returns its
// Rank handle.  Every rank listens on its own address and the mesh is fully
// connected: rank i dials every j < i and accepts from every j > i, so each
// pair shares one bidirectional connection.  The returned Rank speaks the
// same collective and ABM protocols as an in-process world — the same rank
// body runs bit-identically on either transport.
func JoinTCP(opt TCPOptions) (*Rank, error) {
	if err := opt.defaults(); err != nil {
		return nil, err
	}
	t := &tcpTransport{
		opt:    opt,
		closed: make(chan struct{}),
		peers:  make([]*tcpPeer, opt.N),
	}
	t.mbox = newMailbox(t.peerDown)
	if opt.Chaos != nil {
		t.chaos = newChaosInjector(*opt.Chaos, opt.Rank)
	}

	ln, err := net.Listen("tcp", opt.Addrs[opt.Rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", opt.Rank, opt.Addrs[opt.Rank], err)
	}
	t.listener = ln

	// Dial lower ranks and accept higher ranks concurrently: the dial side
	// identifies itself with a hello frame.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = t.dialLower()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = t.acceptHigher()
	}()
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			t.Close()
			return nil, e
		}
	}

	for _, p := range t.peers {
		if p != nil {
			t.startPeer(p)
		}
	}
	return Join(t), nil
}

// tcpTransport is one process's endpoint of a TCP world.
type tcpTransport struct {
	opt      TCPOptions
	mbox     *mailbox
	listener net.Listener
	peers    []*tcpPeer // indexed by rank; nil at opt.Rank
	chaos    *chaosInjector

	closeOnce sync.Once
	closed    chan struct{}
}

// tcpPeer is the reliability state for one connection.
type tcpPeer struct {
	rank int
	conn net.Conn

	wmu sync.Mutex // serializes writes (main goroutine + ABM service + retry)

	// Reliability: outgoing frames carry a per-peer sequence number and are
	// retransmitted with exponential backoff until acknowledged.
	amu     sync.Mutex
	sendSeq uint64
	unacked map[uint64]*pendingFrame
	rng     *rand.Rand // jitter; deterministically seeded per (self, peer)

	// Dedup of retransmitted deliveries: floor is the highest sequence
	// below which everything has been delivered; seen holds delivered
	// sequences above it.
	dmu   sync.Mutex
	floor uint64
	seen  map[uint64]bool

	lastSeen atomic.Int64 // unix nanos of the last frame from this peer

	dead atomic.Pointer[string] // non-nil reason once declared dead
}

type pendingFrame struct {
	wire     []byte
	attempts int
	nextTry  time.Time
}

func (t *tcpTransport) Self() int { return t.opt.Rank }
func (t *tcpTransport) N() int    { return t.opt.N }

// --- Join handshake ------------------------------------------------------

func (t *tcpTransport) dialLower() error {
	for dst := 0; dst < t.opt.Rank; dst++ {
		deadline := time.Now().Add(t.opt.DialTimeout)
		var conn net.Conn
		var err error
		for {
			conn, err = net.DialTimeout("tcp", t.opt.Addrs[dst], time.Second)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("comm: rank %d dial rank %d (%s): %w", t.opt.Rank, dst, t.opt.Addrs[dst], err)
		}
		hello := appendFrame(nil, frame{kind: kindHello, src: uint32(t.opt.Rank)})
		if _, err := conn.Write(hello); err != nil {
			conn.Close()
			return fmt.Errorf("comm: rank %d hello to rank %d: %w", t.opt.Rank, dst, err)
		}
		t.peers[dst] = t.newPeer(dst, conn)
	}
	return nil
}

func (t *tcpTransport) acceptHigher() error {
	need := t.opt.N - 1 - t.opt.Rank
	for i := 0; i < need; i++ {
		if d, ok := t.listener.(*net.TCPListener); ok {
			d.SetDeadline(time.Now().Add(t.opt.DialTimeout))
		}
		conn, err := t.listener.Accept()
		if err != nil {
			return fmt.Errorf("comm: rank %d accept: %w", t.opt.Rank, err)
		}
		conn.SetReadDeadline(time.Now().Add(t.opt.DialTimeout))
		f, err := readFrame(conn, nil)
		if err != nil || f.kind != kindHello {
			conn.Close()
			return fmt.Errorf("comm: rank %d bad hello: %v", t.opt.Rank, err)
		}
		conn.SetReadDeadline(time.Time{})
		src := int(f.src)
		if src <= t.opt.Rank || src >= t.opt.N || t.peers[src] != nil {
			conn.Close()
			return fmt.Errorf("comm: rank %d unexpected hello from rank %d", t.opt.Rank, src)
		}
		t.peers[src] = t.newPeer(src, conn)
	}
	return nil
}

func (t *tcpTransport) newPeer(rank int, conn net.Conn) *tcpPeer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := &tcpPeer{
		rank:    rank,
		conn:    conn,
		unacked: make(map[uint64]*pendingFrame),
		seen:    make(map[uint64]bool),
		rng:     rand.New(rand.NewSource(int64(t.opt.Rank)<<20 ^ int64(rank))),
	}
	p.lastSeen.Store(time.Now().UnixNano())
	return p
}

func (t *tcpTransport) startPeer(p *tcpPeer) {
	go t.readLoop(p)
	go t.retryLoop(p)
	go t.heartbeatLoop(p)
}

// --- Liveness ------------------------------------------------------------

func (t *tcpTransport) markDead(p *tcpPeer, reason string) {
	if p.dead.CompareAndSwap(nil, &reason) {
		p.conn.Close() // unblocks the read loop
		t.mbox.wake()  // re-evaluate blocked receives
	}
}

// peerDown implements the mailbox liveness view (see chanFabric.peerDown
// for the wildcard convention).
func (t *tcpTransport) peerDown(src int) error {
	if src >= 0 {
		if src == t.opt.Rank || src >= t.opt.N {
			return nil
		}
		if r := t.peers[src].dead.Load(); r != nil {
			return fmt.Errorf("%s", *r)
		}
		return nil
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if p.dead.Load() == nil {
			return nil
		}
	}
	return fmt.Errorf("every peer is gone")
}

// --- Send path -----------------------------------------------------------

func (t *tcpTransport) Send(dst, tag int, payload []byte) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if dst < 0 || dst >= t.opt.N {
		return fmt.Errorf("comm: send to invalid rank %d (world size %d)", dst, t.opt.N)
	}
	if dst == t.opt.Rank {
		t.mbox.put(envelope{src: dst, tag: tag, payload: payload})
		return nil
	}
	p := t.peers[dst]
	if r := p.dead.Load(); r != nil {
		return &PeerDeadError{Rank: dst, Reason: *r}
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("comm: %d-byte payload exceeds the %d-byte frame limit", len(payload), maxFramePayload)
	}
	p.amu.Lock()
	p.sendSeq++
	seq := p.sendSeq
	wire := appendFrame(nil, frame{kind: kindData, src: uint32(t.opt.Rank), seq: seq, tag: int64(tag), payload: payload})
	p.unacked[seq] = &pendingFrame{wire: wire, attempts: 1, nextTry: time.Now().Add(t.backoff(p, 1))}
	p.amu.Unlock()
	t.writeFrame(p, wire, kindData, true)
	return nil
}

// writeFrame writes one wire frame, routing first-attempt data and ack
// frames through the chaos injector when one is installed.  Write errors
// mark the peer dead (retransmission cannot help a broken connection).
func (t *tcpTransport) writeFrame(p *tcpPeer, wire []byte, kind uint8, firstAttempt bool) {
	if t.chaos != nil && firstAttempt && (kind == kindData || kind == kindAck) {
		switch act, delay := t.chaos.onSend(p.rank, kind, wire); act {
		case chaosDrop:
			return // the retry loop (or the sender's retransmit) recovers it
		case chaosDuplicate:
			t.rawWrite(p, wire)
		case chaosCorrupt:
			wire = corruptFrame(append([]byte(nil), wire...), t.chaos)
		case chaosDelay:
			wireCopy := append([]byte(nil), wire...)
			time.AfterFunc(delay, func() { t.rawWrite(p, wireCopy) })
			return
		}
	}
	t.rawWrite(p, wire)
}

func (t *tcpTransport) rawWrite(p *tcpPeer, wire []byte) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.dead.Load() != nil {
		return
	}
	p.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := p.conn.Write(wire); err != nil {
		t.markDead(p, fmt.Sprintf("write failed: %v", err))
	}
}

// backoff returns the wait before retransmission attempt k (1-based):
// exponential with deterministic jitter.
func (t *tcpTransport) backoff(p *tcpPeer, attempt int) time.Duration {
	d := t.opt.RetryBase << (attempt - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	// rng is guarded by amu at every call site.
	return d + time.Duration(p.rng.Int63n(int64(t.opt.RetryBase)/2+1))
}

// --- Background loops ----------------------------------------------------

func (t *tcpTransport) readLoop(p *tcpPeer) {
	var hdr [frameHeaderSize]byte
	for {
		f, err := readFrame(p.conn, hdr[:])
		if err == errFrameChecksum {
			continue // aligned stream, corrupted frame: retransmission recovers
		}
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			t.markDead(p, fmt.Sprintf("connection lost: %v", err))
			return
		}
		p.lastSeen.Store(time.Now().UnixNano())
		switch f.kind {
		case kindData:
			// Always (re-)acknowledge: the previous ack may have been lost.
			ack := appendFrame(nil, frame{kind: kindAck, src: uint32(t.opt.Rank), seq: f.seq})
			t.writeFrame(p, ack, kindAck, true)
			if !p.firstDelivery(f.seq) {
				continue // duplicate retransmission
			}
			t.mbox.put(envelope{src: p.rank, tag: int(f.tag), payload: f.payload})
		case kindAck:
			p.amu.Lock()
			delete(p.unacked, f.seq)
			p.amu.Unlock()
		case kindHeartbeat, kindHello:
			// lastSeen already updated; nothing else to do.
		}
	}
}

// firstDelivery records seq as delivered and reports whether it was new.
func (p *tcpPeer) firstDelivery(seq uint64) bool {
	p.dmu.Lock()
	defer p.dmu.Unlock()
	if seq <= p.floor || p.seen[seq] {
		return false
	}
	p.seen[seq] = true
	for p.seen[p.floor+1] {
		p.floor++
		delete(p.seen, p.floor)
	}
	return true
}

func (t *tcpTransport) retryLoop(p *tcpPeer) {
	tick := t.opt.RetryBase / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
		}
		if p.dead.Load() != nil {
			return
		}
		// Liveness: declare the peer dead when nothing has arrived for the
		// timeout (heartbeats should arrive every interval).
		if idle := time.Since(time.Unix(0, p.lastSeen.Load())); idle > t.opt.LivenessTimeout {
			t.markDead(p, fmt.Sprintf("no heartbeat for %v", idle.Round(time.Millisecond)))
			return
		}
		now := time.Now()
		var resend [][]byte
		p.amu.Lock()
		for seq, pf := range p.unacked {
			if now.Before(pf.nextTry) {
				continue
			}
			pf.attempts++
			if pf.attempts > t.opt.MaxSendAttempts {
				p.amu.Unlock()
				t.markDead(p, fmt.Sprintf("no ack for frame %d after %d attempts", seq, t.opt.MaxSendAttempts))
				return
			}
			pf.nextTry = now.Add(t.backoff(p, pf.attempts))
			resend = append(resend, pf.wire)
		}
		p.amu.Unlock()
		for _, wire := range resend {
			// Retransmissions bypass the chaos injector, so injected drop and
			// corrupt faults always converge to delivery.
			t.writeFrame(p, wire, kindData, false)
		}
	}
}

func (t *tcpTransport) heartbeatLoop(p *tcpPeer) {
	ticker := time.NewTicker(t.opt.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
		}
		if p.dead.Load() != nil {
			return
		}
		hb := appendFrame(nil, frame{kind: kindHeartbeat, src: uint32(t.opt.Rank)})
		t.writeFrame(p, hb, kindHeartbeat, true)
	}
}

// --- Recv and close ------------------------------------------------------

func (t *tcpTransport) Recv(src int, match func(tag int) bool, deadline time.Time) (Message, error) {
	if deadline.IsZero() && t.opt.RecvTimeout > 0 {
		deadline = time.Now().Add(t.opt.RecvTimeout)
	}
	e, err := t.mbox.get(t.opt.Rank, src, match, deadline)
	if err != nil {
		return Message{}, err
	}
	return Message{Src: e.src, Tag: e.tag, Payload: e.payload}, nil
}

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		// Drain before teardown: a frame this rank sent may have been
		// dropped or delayed (by the network or the chaos injector) and not
		// yet retransmitted — closing now would strand a peer that still
		// needs it.  Wait until every outgoing frame is acknowledged or its
		// peer is dead, bounded in case a peer dies undetected mid-drain.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			pending := false
			for _, p := range t.peers {
				if p == nil || p.dead.Load() != nil {
					continue
				}
				p.amu.Lock()
				n := len(p.unacked)
				p.amu.Unlock()
				if n > 0 {
					pending = true
					break
				}
			}
			if !pending {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(t.closed)
		if t.listener != nil {
			t.listener.Close()
		}
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		t.mbox.close(ErrClosed)
	})
	return nil
}
