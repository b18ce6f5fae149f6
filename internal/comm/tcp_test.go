package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback addresses by briefly listening on
// port 0.  There is a small window between Close and JoinTCP's own listen,
// but collisions just fail the join loudly.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// runTCPWorld joins n TCP ranks (as goroutines of this process, each with
// its own real TCP transport over loopback) and runs body on each,
// collecting per-rank errors.
func runTCPWorld(t *testing.T, n int, opt func(*TCPOptions), body func(r *Rank) error) []error {
	t.Helper()
	addrs := freeAddrs(t, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			o := TCPOptions{Rank: id, N: n, Addrs: addrs, RecvTimeout: 20 * time.Second}
			if opt != nil {
				opt(&o)
			}
			r, err := JoinTCP(o)
			if err != nil {
				errs[id] = err
				return
			}
			defer r.Close()
			errs[id] = body(r)
		}(i)
	}
	wg.Wait()
	return errs
}

func checkErrs(t *testing.T, errs []error) {
	t.Helper()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", id, err)
		}
	}
}

// tcpExercise is the shared protocol workout: point-to-point, barrier, all
// the collectives, the three alltoall algorithms, and the ABM — the same
// patterns core.RankSolver drives.
func tcpExercise(t *testing.T, r *Rank) error {
	n := r.N()
	// Ring point-to-point.
	if err := r.Send((r.ID+1)%n, 7, []byte{byte(r.ID)}); err != nil {
		return err
	}
	payload, src, err := r.Recv((r.ID-1+n)%n, 7)
	if err != nil {
		return err
	}
	if got := int(payload[0]); got != src {
		return fmt.Errorf("ring recv got %d from %d", got, src)
	}
	if err := r.Barrier(); err != nil {
		return err
	}
	// Collectives.
	sum, err := r.AllreduceFloat64(float64(r.ID+1), "sum")
	if err != nil {
		return err
	}
	if want := float64(n*(n+1)) / 2; sum != want {
		return fmt.Errorf("allreduce sum %g want %g", sum, want)
	}
	all, err := r.AllgatherUint64([]uint64{uint64(r.ID)})
	if err != nil {
		return err
	}
	for i, u := range all {
		if u != uint64(i) {
			return fmt.Errorf("allgather %v", all)
		}
	}
	// Alltoall, all three algorithms.
	for _, algo := range alltoallAlgos {
		send := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			send[dst] = []byte(fmt.Sprintf("%d->%d", r.ID, dst))
		}
		recv, err := r.alltoallv(send, algo)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			if want := fmt.Sprintf("%d->%d", src, r.ID); string(recv[src]) != want {
				return fmt.Errorf("alltoall algo %d: got %q want %q", algo, recv[src], want)
			}
		}
	}
	// ABM request/reply.
	abm, err := r.NewABM(func(src int, keys []uint64) [][]byte {
		out := make([][]byte, len(keys))
		for i, k := range keys {
			out[i] = []byte(fmt.Sprintf("r%d k%d", r.ID, k))
		}
		return out
	})
	if err != nil {
		return err
	}
	for dst := 0; dst < n; dst++ {
		if dst == r.ID {
			continue
		}
		replies, err := abm.RequestSync(dst, []uint64{uint64(100 + r.ID)})
		if err != nil {
			return err
		}
		if want := fmt.Sprintf("r%d k%d", dst, 100+r.ID); string(replies[0]) != want {
			return fmt.Errorf("abm reply %q want %q", replies[0], want)
		}
	}
	return abm.Close()
}

func TestTCPTransportProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback test skipped in -short")
	}
	for _, n := range []int{2, 3, 4} {
		checkErrs(t, runTCPWorld(t, n, nil, func(r *Rank) error { return tcpExercise(t, r) }))
	}
}

// TestTCPChaosConvergence runs the full protocol workout under injected
// drops, delays, duplicates, and corruption: the reliability layer must
// deliver exactly-once regardless, so every collective still returns the
// correct value.
func TestTCPChaosConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	for _, seed := range []int64{1, 2} {
		seed := seed
		checkErrs(t, runTCPWorld(t, 3, func(o *TCPOptions) {
			o.RetryBase = 10 * time.Millisecond
			o.Chaos = &ChaosOptions{
				Seed:          seed,
				DropRate:      0.10,
				DelayRate:     0.10,
				DuplicateRate: 0.10,
				CorruptRate:   0.10,
				MaxDelay:      5 * time.Millisecond,
			}
		}, func(r *Rank) error {
			for iter := 0; iter < 3; iter++ {
				if err := tcpExercise(t, r); err != nil {
					return fmt.Errorf("iter %d: %w", iter, err)
				}
			}
			return nil
		}))
	}
}

// TestTCPPeerDeathDetected pins the liveness monitor: when a rank's process
// vanishes abruptly (simulated by slamming its connections shut), a peer
// blocked on it gets a PeerDeadError instead of hanging.
func TestTCPPeerDeathDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness test skipped in -short")
	}
	errs := runTCPWorld(t, 2, func(o *TCPOptions) {
		o.HeartbeatInterval = 20 * time.Millisecond
		o.LivenessTimeout = 200 * time.Millisecond
	}, func(r *Rank) error {
		if r.ID == 1 {
			// Die without a word: close the transport's sockets directly.
			return r.Transport().Close()
		}
		_, _, err := r.Recv(1, 5)
		if !errors.As(err, new(*PeerDeadError)) {
			return fmt.Errorf("recv from killed peer: got %v, want PeerDeadError", err)
		}
		return nil
	})
	checkErrs(t, errs)
}

// TestTCPSendToDeadPeerFails pins the send-side error path.
func TestTCPSendToDeadPeerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness test skipped in -short")
	}
	errs := runTCPWorld(t, 2, func(o *TCPOptions) {
		o.HeartbeatInterval = 20 * time.Millisecond
		o.LivenessTimeout = 150 * time.Millisecond
		o.RetryBase = 10 * time.Millisecond
		o.MaxSendAttempts = 3
	}, func(r *Rank) error {
		if r.ID == 1 {
			return r.Transport().Close()
		}
		// Eventually sends must fail once liveness (or ack exhaustion)
		// declares the peer dead.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if err := r.Send(1, 9, []byte("x")); err != nil {
				if !errors.As(err, new(*PeerDeadError)) {
					return fmt.Errorf("send error %v, want PeerDeadError", err)
				}
				return nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		return fmt.Errorf("sends to a dead peer kept succeeding")
	})
	checkErrs(t, errs)
}

// bothFabrics runs body on an n-rank channel world and on an n-rank TCP
// loopback world and returns each world's summed statistics.
func bothFabrics(t *testing.T, n int, body func(r *Rank) error) (chanStats, tcpStats Stats) {
	t.Helper()
	w := NewWorld(n)
	must(t, w.Run(body))
	var mu sync.Mutex
	checkErrs(t, runTCPWorld(t, n, nil, func(r *Rank) error {
		if err := body(r); err != nil {
			return err
		}
		s := r.Statistics() // a TCP rank owns its sink: sum them
		mu.Lock()
		tcpStats.PointToPointMsgs += s.PointToPointMsgs
		tcpStats.PointToPointBytes += s.PointToPointBytes
		tcpStats.CollectiveMsgs += s.CollectiveMsgs
		tcpStats.CollectiveBytes += s.CollectiveBytes
		mu.Unlock()
		return nil
	}))
	return w.Statistics(), tcpStats
}

// TestABMBytesAreMeasured pins PointToPointBytes as a measurement: after a
// fixed ABM exchange it equals the summed lengths of the request and reply
// payloads, on the channel world and on TCP loopback alike.  (While payloads
// were Go values the ABM structs were booked at a flat 64-byte guess.)
func TestABMBytesAreMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback test skipped in -short")
	}
	const n = 3
	replyLen := func(key uint64) int { return int(key % 5) } // includes empty replies
	var wantBytes, wantMsgs int64
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			keys := []uint64{uint64(10*src + dst), uint64(10*src + dst + 1), uint64(10*src + dst + 2)}
			wantBytes += int64(8 + 8*len(keys)) // request: id + keys
			wantBytes += 8 + 4                  // reply: id + block count
			for _, k := range keys {
				wantBytes += int64(4 + replyLen(k))
			}
			wantMsgs += 2
		}
		wantMsgs++ // the zero-byte stop message each rank sends itself
	}
	chanStats, tcpStats := bothFabrics(t, n, func(r *Rank) error {
		abm, err := r.NewABM(func(src int, keys []uint64) [][]byte {
			out := make([][]byte, len(keys))
			for i, k := range keys {
				out[i] = make([]byte, replyLen(k))
			}
			return out
		})
		if err != nil {
			return err
		}
		for dst := 0; dst < n; dst++ {
			if dst == r.ID {
				continue
			}
			base := uint64(10*r.ID + dst)
			replies, err := abm.RequestSync(dst, []uint64{base, base + 1, base + 2})
			if err != nil {
				return err
			}
			for i, rep := range replies {
				if len(rep) != replyLen(base+uint64(i)) {
					return fmt.Errorf("reply %d from rank %d has %d bytes", i, dst, len(rep))
				}
			}
		}
		return abm.Close()
	})
	for fabric, s := range map[string]Stats{"chan": chanStats, "tcp": tcpStats} {
		if s.PointToPointBytes != wantBytes || s.PointToPointMsgs != wantMsgs {
			t.Errorf("%s: %d bytes in %d messages, want %d in %d", fabric, s.PointToPointBytes, s.PointToPointMsgs, wantBytes, wantMsgs)
		}
	}
}

// TestCollectiveBytesAreMeasured pins CollectiveBytes as a measurement: a
// 2-rank AlltoallvBytes and AllgatherBytes of known block sizes count
// exactly the payloads they send, on the channel world and on TCP loopback
// alike.  Alltoallv sends each rank's one off-diagonal block; Allgather
// sends rank 1's block up to rank 0 and the packed pair back down.
func TestCollectiveBytesAreMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback test skipped in -short")
	}
	block := func(n int) []byte { return make([]byte, n) }
	// send[src][dst]: the diagonal never travels.
	send := [2][][]byte{{block(100), block(7)}, {block(11), block(200)}}
	gather := [2][]byte{block(5), block(13)}
	wantBytes := int64(7 + 11 + 13 + len(appendBlocks(nil, gather[:])))
	chanStats, tcpStats := bothFabrics(t, 2, func(r *Rank) error {
		if _, err := r.AlltoallvBytes(send[r.ID], AlltoallDirect); err != nil {
			return err
		}
		_, err := r.AllgatherBytes(gather[r.ID])
		return err
	})
	for fabric, s := range map[string]Stats{"chan": chanStats, "tcp": tcpStats} {
		if s.CollectiveBytes != wantBytes || s.CollectiveMsgs != 4 {
			t.Errorf("%s: %d collective bytes in %d messages, want %d in 4", fabric, s.CollectiveBytes, s.CollectiveMsgs, wantBytes)
		}
	}
}

// TestEmptyPayloadsArriveNil pins "zero-length is nil": a nil and an empty
// payload are the same message on both fabrics, to self and to a peer.
func TestEmptyPayloadsArriveNil(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback test skipped in -short")
	}
	bothFabrics(t, 2, func(r *Rank) error {
		for _, dst := range []int{r.ID, 1 - r.ID} {
			if err := r.Send(dst, 1, nil); err != nil {
				return err
			}
			if err := r.Send(dst, 2, []byte{}); err != nil {
				return err
			}
		}
		for _, src := range []int{r.ID, 1 - r.ID} {
			for tag := 1; tag <= 2; tag++ {
				p, _, err := r.Recv(src, tag)
				if err != nil {
					return err
				}
				if p != nil {
					return fmt.Errorf("rank %d: tag %d from rank %d arrived as %#v, want nil", r.ID, tag, src, p)
				}
			}
		}
		return r.Barrier()
	})
}
