package twohot

import (
	"math"
	"testing"

	"twohot/internal/particle"
)

// One decomposition policy, pinned where users stand: the same Config must
// yield the same bytes through every entry point that runs N ranks and across
// a resume.  Both hinge on the per-particle work weights — every production
// decomposition balances on them, and they ride in every snapshot — so these
// runs go deep enough (z = 0) for clustering to make the weights uneven and
// move the splitters.

// distributedIdentityConfig is a 3-rank global-stepping run to z = 0.
func distributedIdentityConfig(t *testing.T) Config {
	cfg := checkpointConfig()
	cfg.ZFinal = 0
	cfg.NSteps = 10
	cfg.Ranks = 3
	cfg.Transport = "chan"
	cfg.Workers = 1
	cfg.OutputDir = t.TempDir()
	return cfg
}

// differingComponents counts, matching particles by ID, the position and
// momentum components of got whose bits differ from ref's, and the largest
// (minimum-image, box side box) position difference.
func differingComponents(t *testing.T, ref, got *particle.Set, box float64) (differ, total int, maxDx float64) {
	t.Helper()
	if ref.Len() != got.Len() {
		t.Fatalf("particle counts differ: %d vs %d", ref.Len(), got.Len())
	}
	at := make(map[int64]int, ref.Len())
	for i, id := range ref.ID {
		at[id] = i
	}
	for i, id := range got.ID {
		j, ok := at[id]
		if !ok {
			t.Fatalf("particle ID %d lost", id)
		}
		for k := 0; k < 3; k++ {
			total += 2
			if ref.Pos[j][k] != got.Pos[i][k] {
				differ++
				dx := math.Abs(ref.Pos[j][k] - got.Pos[i][k])
				maxDx = math.Max(maxDx, math.Min(dx, box-dx))
			}
			if ref.Mom[j][k] != got.Mom[i][k] {
				differ++
			}
		}
	}
	return differ, total, maxDx
}

// TestTransportsByteIdenticalFromConfig runs one Config through what a
// "chan" user gets (Simulation.Run over core.DistributedStep) and what a "tcp"
// user gets (RunClusterSupervised: worker processes running cluster.RankRun)
// and requires the same final particle state, bit for bit.
func TestTransportsByteIdenticalFromConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short")
	}
	cfg := distributedIdentityConfig(t)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	tcp := cfg
	tcp.Transport = "tcp"
	tcp.OutputDir = t.TempDir()
	result, err := RunClusterSupervised(tcp, ClusterRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, result)
	if snap.ScaleFac != sim.A || snap.MomentumScaleFac != sim.AMom {
		t.Fatalf("epochs differ: chan a=%v a_mom=%v, tcp a=%v a_mom=%v", sim.A, sim.AMom, snap.ScaleFac, snap.MomentumScaleFac)
	}
	if differ, total, maxDx := differingComponents(t, sim.P, snap.Particles, cfg.BoxSize); differ != 0 {
		t.Errorf("chan and tcp runs of one Config differ in %d of %d position/momentum components (max |dx| %.3g)", differ, total, maxDx)
	}
}

// TestDistributedResumeByteIdentical is what `2hot -restart` does for a
// ranks > 1 "chan" run: restore the periodic checkpoint (taken at z < 1) into
// a fresh Simulation and run to the end.  The result must equal the
// uninterrupted run's, which requires the checkpoint to carry the work
// weights the next decomposition balances on — in a multi-rung block-stepped
// run too, where the checkpoint lands on a synchronized block boundary.
func TestDistributedResumeByteIdentical(t *testing.T) {
	for _, blockSteps := range []int{0, 3} {
		cfg := distributedIdentityConfig(t)
		cfg.CheckpointEvery = 8 // of 10 steps: one checkpoint, at z = 0.82
		cfg.BlockSteps = blockSteps
		cfg.RungDisplacementFrac = 0.02
		full, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Run(); err != nil {
			t.Fatal(err)
		}
		if blockSteps > 0 && len(full.RungHistogram()) < 2 {
			t.Fatalf("block run stayed on one rung (%v): the multi-rung leg went unexercised", full.RungHistogram())
		}

		resumed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreCheckpoint(full.CheckpointPath()); err != nil {
			t.Fatal(err)
		}
		if resumed.StepCount != 8 || resumed.Redshift() >= 1 {
			t.Fatalf("checkpoint at step %d, z=%.2f; want step 8 at z < 1", resumed.StepCount, resumed.Redshift())
		}
		if err := resumed.Run(); err != nil {
			t.Fatal(err)
		}
		if resumed.A != full.A || resumed.AMom != full.AMom {
			t.Fatalf("block_steps=%d: epochs differ after resume: a %v/%v a_mom %v/%v", blockSteps, resumed.A, full.A, resumed.AMom, full.AMom)
		}
		if differ, total, maxDx := differingComponents(t, full.P, resumed.P, cfg.BoxSize); differ != 0 {
			t.Errorf("block_steps=%d: resumed run differs from the uninterrupted one in %d of %d position/momentum components (max |dx| %.3g)",
				blockSteps, differ, total, maxDx)
		}
	}
}
