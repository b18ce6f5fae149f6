package comm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// must fails the test on err; the rank bodies below use it for operations the
// scenario expects to succeed.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected comm error: %v", err)
	}
}

func TestPointToPointAndBarrier(t *testing.T) {
	w := NewWorld(4)
	var counter int64
	err := w.Run(func(r *Rank) error {
		// Ring send: each rank sends its id to the next.
		next := (r.ID + 1) % r.N()
		must(t, r.Send(next, 7, []byte{byte(r.ID)}))
		payload, src, err := r.Recv((r.ID-1+r.N())%r.N(), 7)
		must(t, err)
		got := int(payload[0])
		if got != src {
			t.Errorf("rank %d received %d from %d", r.ID, got, src)
		}
		must(t, r.Barrier())
		atomic.AddInt64(&counter, 1)
		must(t, r.Barrier())
		if atomic.LoadInt64(&counter) != int64(r.N()) {
			t.Errorf("barrier did not synchronize")
		}
		return nil
	})
	must(t, err)
}

func TestCollectives(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(r *Rank) error {
		sum, err := r.AllreduceFloat64(float64(r.ID+1), "sum")
		must(t, err)
		if sum != 15 {
			t.Errorf("allreduce sum = %g", sum)
		}
		mx, err := r.AllreduceFloat64(float64(r.ID), "max")
		must(t, err)
		if mx != 4 {
			t.Errorf("allreduce max = %g", mx)
		}
		mn, err := r.AllreduceFloat64(float64(r.ID), "min")
		must(t, err)
		if mn != 0 {
			t.Errorf("allreduce min = %g", mn)
		}
		// Variable-length contributions (rank i gives i elements, rank 0 none)
		// come back concatenated in rank order.
		var mine, want []uint64
		for i := 0; i < r.ID; i++ {
			mine = append(mine, uint64(r.ID*10+i))
		}
		for rank := 0; rank < r.N(); rank++ {
			for i := 0; i < rank; i++ {
				want = append(want, uint64(rank*10+i))
			}
		}
		all, err := r.AllgatherUint64(mine)
		must(t, err)
		if !reflect.DeepEqual(all, want) {
			t.Errorf("allgather uint64 = %v, want %v", all, want)
		}
		blocks, err := r.AllgatherBytes([]byte(strings.Repeat("x", r.ID)))
		must(t, err)
		for rank, b := range blocks {
			if string(b) != strings.Repeat("x", rank) {
				t.Errorf("allgather bytes: block %d = %q", rank, b)
			}
		}
		if len(blocks) != r.N() {
			t.Errorf("allgather bytes: %d blocks", len(blocks))
		}
		return nil
	})
	must(t, err)
}

func TestAlltoallVariantsAgree(t *testing.T) {
	for _, algo := range alltoallAlgos {
		for _, n := range []int{1, 2, 3, 4, 7} {
			w := NewWorld(n)
			err := w.Run(func(r *Rank) error {
				send := make([][]byte, n)
				for dst := 0; dst < n; dst++ {
					send[dst] = []byte(fmt.Sprintf("from %d to %d", r.ID, dst))
				}
				recv, err := r.alltoallv(send, algo)
				must(t, err)
				for src := 0; src < n; src++ {
					want := fmt.Sprintf("from %d to %d", src, r.ID)
					if string(recv[src]) != want {
						t.Errorf("algo %d n=%d rank %d: got %q want %q", algo, n, r.ID, recv[src], want)
					}
				}
				return nil
			})
			must(t, err)
		}
	}
}

func TestABMRequestReply(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(r *Rank) error {
		abm, err := r.NewABM(func(src int, keys []uint64) [][]byte {
			out := make([][]byte, len(keys))
			for i, k := range keys {
				out[i] = []byte(fmt.Sprintf("rank %d key %d", r.ID, k))
			}
			return out
		})
		must(t, err)
		// Every rank asks every other rank for two keys.
		for dst := 0; dst < r.N(); dst++ {
			if dst == r.ID {
				continue
			}
			replies, err := abm.RequestSync(dst, []uint64{uint64(r.ID * 100), uint64(r.ID*100 + 1)})
			must(t, err)
			if len(replies) != 2 {
				t.Errorf("expected 2 replies, got %d", len(replies))
				continue
			}
			want := fmt.Sprintf("rank %d key %d", dst, r.ID*100)
			if string(replies[0]) != want {
				t.Errorf("reply %q, want %q", replies[0], want)
			}
		}
		return abm.Close()
	})
	must(t, err)
	stats := w.Statistics()
	if stats.ABMRequests == 0 || stats.ABMBatches == 0 {
		t.Error("ABM statistics not recorded")
	}
}

func TestWorldStatistics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			must(t, r.Send(1, 1, []byte("abc")))
		} else {
			_, _, err := r.Recv(0, 1)
			must(t, err)
		}
		return r.Barrier()
	})
	must(t, err)
	s := w.Statistics()
	if s.PointToPointMsgs != 1 || s.PointToPointBytes != 3 {
		t.Errorf("stats %+v", s)
	}
	if s.CollectiveCalls != 2 || s.CollectiveMsgs == 0 {
		t.Errorf("collective stats %+v", s)
	}
}

// TestRecvFromDeadPeer is the regression for the mailbox hanging forever: a
// rank waiting on a peer that already returned (the in-process analogue of a
// killed process) must get a PeerDeadError instead of deadlocking.
func TestRecvFromDeadPeer(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 1 {
			return nil // dies immediately without sending
		}
		_, _, err := r.Recv(1, 42)
		if !errors.As(err, new(*PeerDeadError)) {
			t.Errorf("recv from dead peer: got %v, want PeerDeadError", err)
		}
		return nil
	})
	must(t, err)
}

// TestCollectiveFailsOnDeadPeer pins the error path through the collectives:
// a barrier with a dead participant must fail, not hang, and Run must report
// which rank died.
func TestCollectiveFailsOnDeadPeer(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(r *Rank) error {
		if r.ID == 2 {
			return errors.New("simulated crash")
		}
		if err := r.Barrier(); err == nil {
			t.Error("barrier with dead rank succeeded")
		} else if !errors.As(err, new(*PeerDeadError)) {
			t.Errorf("barrier error %v, want PeerDeadError", err)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Errorf("Run error %v, want the crashed rank's error", err)
	}
}

// TestRecvDeadline pins the deadline surface: a receive with no matching
// sender times out with a DeadlineError.
func TestRecvDeadline(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			_, _, err := r.RecvDeadline(1, 5, 20*time.Millisecond)
			var de *DeadlineError
			if !errors.As(err, &de) {
				t.Errorf("recv deadline: got %v, want DeadlineError", err)
			}
			must(t, r.Send(1, 6, nil)) // release rank 1
			return nil
		}
		_, _, err := r.Recv(0, 6)
		return err
	})
	must(t, err)
}

// TestRunReportsPanic pins that a panicking rank surfaces as a Run error
// (not a re-raised panic) and that the surviving ranks unblock.
func TestRunReportsPanic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if r.ID == 0 {
			panic("boom")
		}
		_, _, err := r.Recv(0, 1)
		if !errors.As(err, new(*PeerDeadError)) {
			t.Errorf("survivor recv: got %v, want PeerDeadError", err)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Run error %v, want the panic message", err)
	}
}

// TestWildcardRecvSkipsInternalTags pins the tag-space separation: a
// wildcard receive must not steal collective-protocol messages.
func TestWildcardRecvSkipsInternalTags(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		// Interleave a collective with app-tag traffic: the wildcard recv on
		// rank 0 must see only the app message even though barrier tokens
		// flow through the same mailbox.
		if r.ID == 1 {
			must(t, r.Send(0, 3, []byte("app")))
		}
		must(t, r.Barrier())
		if r.ID == 0 {
			p, src, err := r.Recv(-1, -1)
			must(t, err)
			if src != 1 || string(p) != "app" {
				t.Errorf("wildcard recv got %v from %d", p, src)
			}
		}
		return r.Barrier()
	})
	must(t, err)
}
