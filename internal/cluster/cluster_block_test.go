package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"twohot/internal/cluster"
	"twohot/internal/comm"
)

// Distributed block-timestep matrix: the block engine composed with the rank
// exchange must collapse to the global rank body bit for bit when every
// particle stays on rung 0, and a genuinely multi-rung run must produce the
// same bytes on every transport (in-process channels, TCP loopback, TCP under
// recoverable chaos), across a checkpoint resume, and across a supervised
// mid-run process kill.  The rung schedule itself is pinned too: every rank
// must agree on the same global rung histogram at every block boundary.

// blockSpec is testSpec with block stepping enabled.  frac is the rung
// displacement criterion; 1e12 parks everyone on rung 0, 1e-5 splits this IC's
// velocity distribution across several rungs (pinned by the histogram test).
func blockSpec(t *testing.T, dir string, n int, frac float64) cluster.Spec {
	t.Helper()
	spec := testSpec(t, dir, n)
	spec.BlockSteps = 3
	spec.RungDisplacementFrac = frac
	return spec
}

// runChanHooked drives the per-rank body on the in-process channel world with
// per-rank block hooks installed.
func runChanHooked(t *testing.T, spec cluster.Spec, hook func(rank, stepsDone int, hist []int)) {
	t.Helper()
	world := comm.NewWorld(spec.N)
	if err := world.Run(func(r *comm.Rank) error {
		return cluster.RankRunHooked(r, spec, cluster.RunHooks{
			OnBlock: func(stepsDone int, hist []int) { hook(r.ID, stepsDone, hist) },
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterBlockAllRungZeroBitIdenticalToGlobal pins the degenerate-case
// contract over the rank exchange: with every particle on rung 0, the block
// body executes exactly the global body's arithmetic — same solves, same
// rechunks, same checkpoint cadence — so result AND checkpoint files must be
// byte-identical, for every world size.
func TestClusterBlockAllRungZeroBitIdenticalToGlobal(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dirRef, dirBlk := t.TempDir(), t.TempDir()
			ref := testSpec(t, dirRef, n)
			runChan(t, ref)

			blk := blockSpec(t, dirBlk, n, 1e12)
			runChanHooked(t, blk, func(rank, stepsDone int, hist []int) {
				if len(hist) != 1 {
					t.Errorf("rank %d step %d: loose criterion still occupied %d rungs", rank, stepsDone, len(hist))
				}
			})

			if got, want := readResult(t, blk.ResultPath), readResult(t, ref.ResultPath); !bytes.Equal(got, want) {
				t.Error("all-rung-0 block result differs from the global result")
			}
			if got, want := readResult(t, blk.CheckpointPath), readResult(t, ref.CheckpointPath); !bytes.Equal(got, want) {
				t.Error("all-rung-0 block checkpoint differs from the global checkpoint")
			}
		})
	}
}

// TestClusterBlockRungHistogramAgreement pins the rung-agreement protocol: at
// every block boundary every rank must report the identical global histogram,
// its counts must sum to the full particle load, and the multi-rung spec must
// actually occupy several rungs (otherwise the matrix above would be testing
// the degenerate path twice).
func TestClusterBlockRungHistogramAgreement(t *testing.T) {
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			spec := blockSpec(t, t.TempDir(), n, 1e-5)
			var mu sync.Mutex
			hists := map[int]map[int]string{} // step -> rank -> histogram key
			multi := false
			runChanHooked(t, spec, func(rank, stepsDone int, hist []int) {
				total := 0
				for _, c := range hist {
					total += c
				}
				if total != 96 {
					t.Errorf("rank %d step %d: histogram sums to %d particles, want 96", rank, stepsDone, total)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(hist) > 1 {
					multi = true
				}
				if hists[stepsDone] == nil {
					hists[stepsDone] = map[int]string{}
				}
				hists[stepsDone][rank] = fmt.Sprint(hist)
			})
			for step, byRank := range hists {
				if len(byRank) != n {
					t.Errorf("step %d: %d of %d ranks reported a histogram", step, len(byRank), n)
				}
				for rank, h := range byRank {
					if h != byRank[0] {
						t.Errorf("step %d: rank %d histogram %s != rank 0 histogram %s", step, rank, h, byRank[0])
					}
				}
			}
			if !multi {
				t.Error("multi-rung spec never occupied more than one rung; loosen RungDisplacementFrac in blockSpec")
			}
		})
	}
}

// TestClusterBlockMultiRungBitIdenticalAcrossTransports is the multi-rung leg
// of the transport matrix: activity flags, rungs and momentum epochs now ride
// the wire on every substep, and the bytes must not care whether the wire is
// a channel, TCP loopback, or TCP under drops, delays, duplicates and
// corruption.
func TestClusterBlockMultiRungBitIdenticalAcrossTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster TCP test skipped in -short")
	}
	for _, n := range []int{2, 4} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := blockSpec(t, t.TempDir(), n, 1e-5)
			runChan(t, ref)
			want := readResult(t, ref.ResultPath)

			tcp := blockSpec(t, t.TempDir(), n, 1e-5)
			runTCPInProcess(t, tcp)
			if got := readResult(t, tcp.ResultPath); !bytes.Equal(got, want) {
				t.Error("TCP block result differs from in-process block result")
			}

			chaotic := blockSpec(t, t.TempDir(), n, 1e-5)
			chaotic.RetryBase = 10 * time.Millisecond
			chaotic.Chaos = &comm.ChaosOptions{
				Seed: 7, DropRate: 0.05, DelayRate: 0.05,
				DuplicateRate: 0.05, CorruptRate: 0.05,
				MaxDelay: 3 * time.Millisecond,
			}
			runTCPInProcess(t, chaotic)
			if got := readResult(t, chaotic.ResultPath); !bytes.Equal(got, want) {
				t.Error("chaotic TCP block result differs from in-process block result")
			}
		})
	}
}

// TestClusterBlockCheckpointResumeBitIdentical pins the synchronized-boundary
// checkpoint rule end to end: a multi-rung run's checkpoints are written only
// after the world collectively closes the leapfrog, so a run resumed from the
// step-2 checkpoint must finish byte-identical to the uninterrupted run.
func TestClusterBlockCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := blockSpec(t, dir, 2, 1e-5)
	runChan(t, spec)
	want := readResult(t, spec.ResultPath)

	dir2 := t.TempDir()
	first := blockSpec(t, dir2, 2, 1e-5)
	first.NSteps = 2
	first.ResultPath = filepath.Join(dir2, "partial.sdf")
	runChan(t, first)

	resumed := blockSpec(t, dir2, 2, 1e-5)
	resumed.SnapshotIn = first.CheckpointPath // "step = 2" checkpoint
	resumed.ResultPath = filepath.Join(dir2, "resumed.sdf")
	runChan(t, resumed)
	if got := readResult(t, resumed.ResultPath); !bytes.Equal(got, want) {
		t.Error("resumed block run differs from uninterrupted block run")
	}
}

// TestClusterBlockSupervisedRecoveryBitIdentical extends the fault-tolerance
// pin to block stepping: two worker processes advance a multi-rung run, rank
// 1 chaos-kills itself between block synchronizations, and the supervisor's
// restart from the last synchronized checkpoint must converge to the same
// bytes as a never-faulted in-process run.
func TestClusterBlockSupervisedRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process supervision test skipped in -short")
	}
	dirRef := t.TempDir()
	ref := blockSpec(t, dirRef, 2, 1e-5)
	runChan(t, ref)
	want := readResult(t, ref.ResultPath)

	dirFault := t.TempDir()
	fault := blockSpec(t, dirFault, 2, 1e-5)
	fault.HeartbeatInterval = 100 * time.Millisecond
	fault.LivenessTimeout = time.Second
	fault.RetryBase = 10 * time.Millisecond
	fault.Chaos = &comm.ChaosOptions{
		Seed:      3,
		DropRate:  0.02,
		KillAfter: 60, // a multi-rung block is ~38 data frames: dies mid-block after checkpoints exist
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
		t.Error("chaos kill never fired: the mid-block recovery path went unexercised")
	}
	if fromCheckpoint == 0 {
		t.Error("no checkpoint existed at restart: restore path went unexercised (lower KillAfter?)")
	}
	if got := readResult(t, fault.ResultPath); !bytes.Equal(got, want) {
		t.Error("supervised faulted block run differs from clean block run")
	}
}
