package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	twohot "twohot"
	"twohot/internal/sdf"
)

// TestLifecycleSuspendResumeBitIdentical is the end-to-end serving contract,
// driven entirely over the HTTP API: submit → run → suspend (checkpoint at a
// step boundary) → resume (fresh Simulation in the runner, cold caches) →
// complete, with the final state bit-identical to an uninterrupted run of
// the same configuration.  This is the first consumer exercising
// WriteCheckpoint/RestoreCheckpoint and the observer hooks under real
// concurrency, so it runs under -race in CI.  The ranks=2 leg is the same
// cycle over the distributed tree: the checkpoint must carry the work weights
// that steer the next domain decomposition, or the resumed run decomposes
// differently and every particle drifts off the uninterrupted trajectory.
func TestLifecycleSuspendResumeBitIdentical(t *testing.T) {
	t.Run("ranks=1", func(t *testing.T) { lifecycleSuspendResume(t, testConfig("lifecycle", 24), 2) })
	t.Run("ranks=2", func(t *testing.T) {
		// Evolved to z = 0 and suspended late, when clustering has made the
		// per-particle work uneven enough to move the splitters.
		cfg := testConfig("lifecycle", 24)
		cfg.Ranks, cfg.Transport = 2, "chan"
		cfg.ZFinal = 0
		lifecycleSuspendResume(t, cfg, 16)
	})
}

// lifecycleSuspendResume runs the cycle, suspending once the run has
// completed at least suspendAt steps.
func lifecycleSuspendResume(t *testing.T, cfg twohot.Config, suspendAt int) {

	refPath := referenceFinal(t, cfg)

	// Served run with a mid-flight suspend/resume cycle, on a pool wide
	// enough for the ranks=2 leg's two slots.
	root := t.TempDir()
	s := newTestServer(t, Options{Dir: root, PoolWorkers: 2, QueueCap: 4})
	ts := httpServer(t, s)
	info := submitHTTP(t, ts, "alice", cfg)

	// Wait until the run is past suspendAt steps, then suspend.  The run has
	// 24 steps; polling every millisecond reaches it long before the end.
	waitFor(t, "the suspend step", 60*time.Second, func() bool {
		var st struct{ Stats }
		getJSON(t, ts.URL+"/api/sims/"+info.ID+"/stats", &st)
		return st.Step >= suspendAt
	})
	resp, err := http.Post(ts.URL+"/api/sims/"+info.ID+"/suspend", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("suspend returned %d", resp.StatusCode)
	}
	suspended := waitState(t, s, info.ID, StateSuspended, 60*time.Second)
	if suspended.Stats.Step >= cfg.NSteps {
		t.Fatalf("suspended only at step %d of %d — the cycle did not interrupt the run", suspended.Stats.Step, cfg.NSteps)
	}
	ckpt := filepath.Join(root, "alice", info.ID, cfg.Name+"-ckpt.sdf")
	if _, err := sdf.Read(ckpt); err != nil {
		t.Fatalf("suspend left no readable checkpoint: %v", err)
	}

	resp, err = http.Post(ts.URL+"/api/sims/"+info.ID+"/resume", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume returned %d", resp.StatusCode)
	}
	final := waitState(t, s, info.ID, StateCompleted, 120*time.Second)
	if final.Stats.Suspends != 1 || final.Stats.Resumes != 1 {
		t.Fatalf("lifecycle counters suspends=%d resumes=%d, want 1/1", final.Stats.Suspends, final.Stats.Resumes)
	}
	if final.Stats.Step != cfg.NSteps {
		t.Fatalf("resumed run finished at step %d, want %d (must continue the original grid)", final.Stats.Step, cfg.NSteps)
	}

	assertSameFinalState(t, refPath, filepath.Join(root, "alice", info.ID, cfg.Name+"-final.sdf"))
}

// referenceFinal runs cfg uninterrupted, outside any server, and returns the
// path of its final synchronized snapshot.
func referenceFinal(t *testing.T, cfg twohot.Config) string {
	t.Helper()
	cfg.OutputDir = t.TempDir()
	ref, err := twohot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.OutputDir, "ref-final.sdf")
	if err := ref.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSameFinalState requires two final snapshots to agree bit for bit on
// epochs, particle order, positions and momenta.
func assertSameFinalState(t *testing.T, refPath, gotPath string) {
	t.Helper()
	refSnap, err := sdf.Read(refPath)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := sdf.Read(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if refSnap.ScaleFac != gotSnap.ScaleFac || refSnap.MomentumScaleFac != gotSnap.MomentumScaleFac {
		t.Fatalf("epochs differ: a %v/%v a_mom %v/%v",
			refSnap.ScaleFac, gotSnap.ScaleFac, refSnap.MomentumScaleFac, gotSnap.MomentumScaleFac)
	}
	rp, gp := refSnap.Particles, gotSnap.Particles
	if rp.Len() != gp.Len() {
		t.Fatalf("particle counts differ: %d vs %d", rp.Len(), gp.Len())
	}
	for i := range rp.Pos {
		if rp.ID[i] != gp.ID[i] {
			t.Fatalf("particle %d: IDs differ", i)
		}
		if rp.Pos[i] != gp.Pos[i] || rp.Mom[i] != gp.Mom[i] {
			t.Fatalf("particle %d: served trajectory is not bit-identical (%v/%v vs %v/%v)",
				i, rp.Pos[i], rp.Mom[i], gp.Pos[i], gp.Mom[i])
		}
	}
}

// TestSuspendBeforeFirstStep is the regression test for a suspend that wins
// the race against the runner's start-up: RunContext sees the canceled
// context before generating particles, so there is nothing to checkpoint.
// The runner used to write one anyway and crash the process on the absent
// particle set; it must instead park the simulation without a checkpoint,
// and the resume must run it from scratch to the uninterrupted result.  The
// race is made deterministic by starting the runner by hand on a context
// that is already canceled.
func TestSuspendBeforeFirstStep(t *testing.T) {
	cfg := testConfig("early", 4)
	refPath := referenceFinal(t, cfg)

	root := t.TempDir()
	s := newTestServer(t, Options{Dir: root, PoolWorkers: 1, QueueCap: 4})
	// A long job holds the only slot, so the job under test stays queued and
	// no runner of its own races the one started below.
	blocker, err := s.Submit("bob", testConfig("blocker", 500))
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Submit("alice", cfg)
	if err != nil {
		t.Fatal(err)
	}

	// What dispatchLocked + Suspend would have left behind, had the suspend
	// arrived before the runner's first instruction.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("suspend requested"))
	s.mu.Lock()
	sm := s.sims[info.ID]
	s.dequeueLocked(sm)
	s.used += sm.cost
	s.tenantUse[sm.tenant] += sm.cost
	sm.state = StateSuspending
	sm.intent = intentSuspend
	sm.cancel = cancel
	s.wg.Add(1)
	s.mu.Unlock()
	s.runSim(sm, ctx)

	got, _ := s.Get(info.ID)
	if got.State != StateSuspended || got.Stats.Suspends != 1 {
		t.Fatalf("early suspend ended %q with %d suspends (error %q), want suspended/1", got.State, got.Stats.Suspends, got.Error)
	}
	if _, err := os.Stat(filepath.Join(root, "alice", info.ID, cfg.Name+"-ckpt.sdf")); err == nil {
		t.Fatal("a suspend before the first step left a checkpoint behind")
	}

	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateCanceled, 60*time.Second)
	if _, err := s.Resume(info.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, info.ID, StateCompleted, 120*time.Second)
	if final.Stats.Step != cfg.NSteps {
		t.Fatalf("resumed run finished at step %d, want %d", final.Stats.Step, cfg.NSteps)
	}
	assertSameFinalState(t, refPath, filepath.Join(root, "alice", info.ID, cfg.Name+"-final.sdf"))
}

// TestPanickingJobFailsAlone pins the blast radius of a panic inside a run:
// the job ends failed with the panic text, its slots return to the pool and
// its stream closes, while another tenant's concurrently running job
// completes with the uninterrupted result.  (The runner goroutine used to
// have no recover, so the panic ended the process.)  Validation rejects the
// configurations known to panic, so the panic comes from an observer the
// test plants on the doomed job's simulation.
func TestPanickingJobFailsAlone(t *testing.T) {
	steady := testConfig("steady", 6)
	refPath := referenceFinal(t, steady)

	root := t.TempDir()
	s := newTestServer(t, Options{Dir: root, PoolWorkers: 2, QueueCap: 4})
	s.newSim = func(cfg twohot.Config, opts ...twohot.Option) (*twohot.Simulation, error) {
		tw, err := twohot.New(cfg, opts...)
		if err == nil && cfg.Name == "doomed" {
			tw.AddObserver(twohot.ObserverFuncs{Step: func(twohot.StepInfo) { panic("solver invariant tripped") }})
		}
		return tw, err
	}
	bystander, err := s.Submit("bob", steady)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := s.Submit("alice", testConfig("doomed", 2))
	if err != nil {
		t.Fatal(err)
	}

	got := waitState(t, s, doomed.ID, StateFailed, 60*time.Second)
	if !strings.Contains(got.Error, "solver invariant tripped") {
		t.Fatalf("panicking job failed with error %q, want the panic text", got.Error)
	}
	waitFor(t, "the panicking job's stream to close", 10*time.Second, func() bool {
		events, unsubscribe := s.broker.subscribe(doomed.ID)
		defer unsubscribe()
		select {
		case _, open := <-events:
			return !open
		default:
			return false
		}
	})
	s.mu.Lock()
	aliceSlots := s.tenantUse["alice"]
	s.mu.Unlock()
	if aliceSlots != 0 {
		t.Fatalf("panicking job still holds %d slots", aliceSlots)
	}

	final := waitState(t, s, bystander.ID, StateCompleted, 120*time.Second)
	if final.Stats.Step != steady.NSteps {
		t.Fatalf("bystander finished at step %d, want %d", final.Stats.Step, steady.NSteps)
	}
	assertSameFinalState(t, refPath, filepath.Join(root, "bob", bystander.ID, steady.Name+"-final.sdf"))
}

// TestCloseSuspendsRunning pins graceful shutdown: Close drains the pool by
// suspending running simulations with a checkpoint, so nothing is lost.
func TestCloseSuspendsRunning(t *testing.T) {
	root := t.TempDir()
	s := newTestServer(t, Options{Dir: root, PoolWorkers: 1, QueueCap: 4})
	info, err := s.Submit("alfa", testConfig("drain", 500))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, info.ID, StateRunning, 30*time.Second)
	waitFor(t, "a completed step", 30*time.Second, func() bool {
		st, _ := s.Get(info.ID)
		return st.Stats.Step >= 1
	})
	queued, err := s.Submit("alfa", testConfig("parked", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(info.ID)
	if got.State != StateSuspended {
		t.Fatalf("running sim drained into %q, want suspended", got.State)
	}
	if _, err := sdf.Read(filepath.Join(root, "alfa", info.ID, "drain-ckpt.sdf")); err != nil {
		t.Fatalf("shutdown suspend left no readable checkpoint: %v", err)
	}
	parked, _ := s.Get(queued.ID)
	if parked.State != StateSuspended {
		t.Fatalf("queued sim drained into %q, want suspended", parked.State)
	}
	// Post-shutdown submissions are refused.
	if _, err := s.Submit("alfa", testConfig("late", 2)); err == nil {
		t.Fatal("submission accepted after Close")
	}
}
