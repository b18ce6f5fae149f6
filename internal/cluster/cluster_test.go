package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"twohot/internal/cluster"
	"twohot/internal/comm"
	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/sdf"
	"twohot/internal/softening"
	"twohot/internal/vec"
)

// TestMain diverts re-executed worker processes into the cluster worker
// before any test runs; a normal `go test` invocation falls through.
func TestMain(m *testing.M) {
	cluster.WorkerMain()
	os.Exit(m.Run())
}

// writeIC writes a small deterministic particle load and returns its path.
func writeIC(t *testing.T, dir string, n int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	set := particle.New(n)
	for i := 0; i < n; i++ {
		pos := vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mom := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(1e-3)
		set.Append(pos, mom, 1.0/float64(n), int64(i))
	}
	path := filepath.Join(dir, "ic.sdf")
	if err := sdf.Write(path, &sdf.Snapshot{
		Particles:        set,
		ScaleFac:         0.2,
		MomentumScaleFac: 0.2,
		BoxSize:          1,
		Cosmology:        "eds",
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// testSpec is the shared scenario: a 3-step leapfrog over the deterministic
// load, checkpointing after every step.
func testSpec(t *testing.T, dir string, n int) cluster.Spec {
	t.Helper()
	return cluster.Spec{
		TCPOptions: comm.TCPOptions{N: n, RecvTimeout: 60 * time.Second},
		Cosmology:  "eds",
		Tree: core.TreeConfig{
			Order: 2, ErrTol: 1e-3, Kernel: softening.Plummer, Eps: 0.02,
			Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1,
			Workers: 1,
		},
		NSteps:          3,
		DlnA:            0.05,
		SnapshotIn:      writeIC(t, dir, 96),
		ResultPath:      filepath.Join(dir, "result.sdf"),
		CheckpointPath:  filepath.Join(dir, "ckpt.sdf"),
		CheckpointEvery: 1,
	}
}

// runChan drives the per-rank body on the in-process channel world — the
// reference the TCP runs must match bit for bit.
func runChan(t *testing.T, spec cluster.Spec) {
	t.Helper()
	world := comm.NewWorld(spec.N)
	if err := world.Run(func(r *comm.Rank) error {
		return cluster.RankRun(r, spec)
	}); err != nil {
		t.Fatal(err)
	}
}

// runTCPInProcess drives the same body over real TCP loopback transports,
// one goroutine per rank within this process.
func runTCPInProcess(t *testing.T, spec cluster.Spec) {
	t.Helper()
	addrs := make([]string, spec.N)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	spec.Addrs = addrs
	errs := make([]error, spec.N)
	var wg sync.WaitGroup
	for i := 0; i < spec.N; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = cluster.Worker(spec, rank)
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func readResult(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTCPRunBitIdenticalToInProcess is the tentpole pin: the same spec run on
// the in-process channel world and over TCP loopback produces byte-identical
// result snapshots — with and without injected transport faults.
func TestTCPRunBitIdenticalToInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster TCP test skipped in -short")
	}
	for _, n := range []int{2, 3} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dirChan, dirTCP := t.TempDir(), t.TempDir()
			ref := testSpec(t, dirChan, n)
			runChan(t, ref)
			want := readResult(t, ref.ResultPath)

			tcp := testSpec(t, dirTCP, n)
			runTCPInProcess(t, tcp)
			if got := readResult(t, tcp.ResultPath); !bytes.Equal(got, want) {
				t.Error("TCP result differs from in-process result")
			}

			// Same run under recoverable chaos: drops, delays, duplicates and
			// corruption must not change a single bit.
			dirChaos := t.TempDir()
			chaotic := testSpec(t, dirChaos, n)
			chaotic.RetryBase = 10 * time.Millisecond
			chaotic.Chaos = &comm.ChaosOptions{
				Seed: 7, DropRate: 0.05, DelayRate: 0.05,
				DuplicateRate: 0.05, CorruptRate: 0.05,
				MaxDelay: 3 * time.Millisecond,
			}
			runTCPInProcess(t, chaotic)
			if got := readResult(t, chaotic.ResultPath); !bytes.Equal(got, want) {
				t.Error("chaotic TCP result differs from in-process result")
			}
		})
	}
}

// TestCheckpointResumeBitIdentical pins the restart path without processes:
// run steps 0..3 in one go, then replay from the step-2 checkpoint, and
// require the final snapshots to match byte for byte.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, dir, 2)
	runChan(t, spec)
	want := readResult(t, spec.ResultPath)

	// The final checkpoint is from after step 3 == NSteps; rewrite the
	// scenario to stop at step 2, then resume from its checkpoint.
	dir2 := t.TempDir()
	first := testSpec(t, dir2, 2)
	first.NSteps = 2
	first.ResultPath = filepath.Join(dir2, "partial.sdf")
	runChan(t, first)

	resumed := testSpec(t, dir2, 2)
	resumed.SnapshotIn = first.CheckpointPath // "step = 2" checkpoint
	resumed.ResultPath = filepath.Join(dir2, "resumed.sdf")
	runChan(t, resumed)
	if got := readResult(t, resumed.ResultPath); !bytes.Equal(got, want) {
		t.Error("resumed run differs from uninterrupted run")
	}
}

// TestSupervisedRecoveryBitIdentical is the fault-tolerance pin: N separate
// worker processes, one of which chaos-kills itself mid-run; the supervisor
// restarts the world from the last good checkpoint and the final result is
// byte-identical to a never-faulted run.
func TestSupervisedRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process supervision test skipped in -short")
	}
	dirRef := t.TempDir()
	ref := testSpec(t, dirRef, 2)
	runChan(t, ref)
	want := readResult(t, ref.ResultPath)

	// Clean supervised run first: processes, no faults.
	dirClean := t.TempDir()
	clean := testSpec(t, dirClean, 2)
	if err := cluster.Supervise(clean, cluster.SuperviseOptions{
		Command: []string{os.Args[0]},
		Dir:     dirClean,
	}); err != nil {
		t.Fatal(err)
	}
	if got := readResult(t, clean.ResultPath); !bytes.Equal(got, want) {
		t.Error("supervised clean run differs from in-process run")
	}

	// Faulted run: rank 1 kills itself after some frames (plus background
	// frame drops); the supervisor must restart and still converge to the
	// identical result.  KillAfter is tuned to land after the first
	// checkpoint, so the restart exercises restore-from-checkpoint, not just
	// restart-from-IC.
	dirFault := t.TempDir()
	fault := testSpec(t, dirFault, 2)
	fault.HeartbeatInterval = 100 * time.Millisecond
	fault.LivenessTimeout = time.Second
	fault.RetryBase = 10 * time.Millisecond
	fault.Chaos = &comm.ChaosOptions{
		Seed:      3,
		DropRate:  0.02,
		KillAfter: 200, // one step is ~100 data frames: dies mid-step-2, after checkpoints exist
	}
	fault.ChaosKillRank = 1
	restarts, fromCheckpoint := 0, 0
	if err := cluster.Supervise(fault, cluster.SuperviseOptions{
		Command:     []string{os.Args[0]},
		Dir:         dirFault,
		MaxRestarts: 4,
		OnRestart: func(int, error) {
			restarts++
			if _, err := os.Stat(fault.CheckpointPath); err == nil {
				fromCheckpoint++
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if restarts == 0 {
		t.Error("chaos kill never fired: the recovery path went unexercised")
	}
	if fromCheckpoint == 0 {
		t.Error("no checkpoint existed at restart: restore path went unexercised (lower KillAfter?)")
	}
	if got := readResult(t, fault.ResultPath); !bytes.Equal(got, want) {
		t.Error("supervised faulted run differs from clean run")
	}
}

// TestRankRunRequiresPeriodicBox pins the body's one precondition: the
// stepping engines wrap positions into the box, so a non-periodic spec is
// refused up front in either stepping mode.
func TestRankRunRequiresPeriodicBox(t *testing.T) {
	for _, blockSteps := range []int{0, 3} {
		spec := testSpec(t, t.TempDir(), 1)
		spec.Tree.Periodic = false
		spec.BlockSteps = blockSteps
		err := comm.NewWorld(1).Run(func(r *comm.Rank) error { return cluster.RankRun(r, spec) })
		if err == nil {
			t.Errorf("block_steps=%d: a non-periodic cluster run was accepted", blockSteps)
		}
	}
}
