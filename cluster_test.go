package twohot

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"twohot/internal/cluster"
	"twohot/internal/comm"
	"twohot/internal/sdf"
)

// TestMain diverts re-executed worker processes into the cluster worker
// before any test runs; a normal `go test` invocation falls through.
func TestMain(m *testing.M) {
	ClusterWorkerMain()
	os.Exit(m.Run())
}

func clusterConfig(t *testing.T) Config {
	cfg := checkpointConfig()
	cfg.NSteps = 3
	cfg.Ranks = 2
	cfg.Transport = "tcp"
	cfg.Workers = 1
	cfg.CheckpointEvery = 1
	cfg.OutputDir = t.TempDir()
	return cfg
}

// TestRunClusterSupervisedCompletes drives the full deployment path end to
// end: the supervisor re-executes this test binary as two TCP worker
// processes, and the gathered result must land at z_final with every particle
// and a complete step grid.  (The bit-identity pins against the in-process
// world live in internal/cluster; this covers the Config→Spec wiring.)
func TestRunClusterSupervisedCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short")
	}
	cfg := clusterConfig(t)
	result, err := RunClusterSupervised(cfg, ClusterRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, result)
	if want := cfg.NGrid * cfg.NGrid * cfg.NGrid; snap.Particles.Len() != want {
		t.Errorf("result has %d particles, want %d", snap.Particles.Len(), want)
	}
	if aFinal := 1 / (1 + cfg.ZFinal); math.Abs(snap.ScaleFac-aFinal) > 1e-12 {
		t.Errorf("result at a=%v, want %v", snap.ScaleFac, aFinal)
	}
	if snap.MomentumScaleFac != snap.ScaleFac {
		t.Error("result snapshot is not synchronized")
	}
	if stepsDone, _ := snap.StepGrid(); stepsDone != 3 {
		t.Errorf("result completed step %d, want 3", stepsDone)
	}
	// The run also left a checkpoint and the staged IC behind.
	if _, err := os.Stat(filepath.Join(cfg.OutputDir, cfg.Name+"-ckpt.sdf")); err != nil {
		t.Errorf("no checkpoint written: %v", err)
	}
}

// TestRunClusterSupervisedResume pins the -restart path: a cluster run
// resumed from a mid-grid cluster checkpoint finishes the original grid with
// a result byte-identical to the uninterrupted run's.
func TestRunClusterSupervisedResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short")
	}
	cfg := clusterConfig(t)
	cfg.CheckpointEvery = 2 // of 3 steps: the checkpoint left behind is mid-grid
	full, err := RunClusterSupervised(cfg, ClusterRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(cfg.OutputDir, cfg.Name+"-ckpt.sdf")
	if stepsDone, _ := readSnapshot(t, ckpt).StepGrid(); stepsDone != 2 {
		t.Fatalf("checkpoint at step %d, want 2", stepsDone)
	}

	resumeCfg := cfg
	resumeCfg.OutputDir = t.TempDir()
	resumed, err := RunClusterSupervised(resumeCfg, ClusterRunOptions{SnapshotIn: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("run resumed from the step-2 checkpoint differs from the uninterrupted run")
	}

	// The result sits at step NSteps: nothing is left to resume.
	if out, err := RunClusterSupervised(resumeCfg, ClusterRunOptions{SnapshotIn: full}); err == nil {
		t.Fatalf("resume from a completed grid succeeded (%s); want an error", out)
	}
}

// TestStageClusterRunRestartKeepsStepSize pins the one step-grid convention:
// staging a restart from any checkpoint of a run yields bit for bit the step
// size the fresh run was staged with, because both evaluate
// ln(aFinal/aInit)/NSteps from the anchor the checkpoint carries.
func TestStageClusterRunRestartKeepsStepSize(t *testing.T) {
	cfg := clusterConfig(t)
	cfg.NGrid = 4
	cfg.ZInit, cfg.ZFinal, cfg.NSteps = 24, 0, 24
	fresh, err := stageClusterRun(cfg, cfg.OutputDir, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, fresh.SnapshotIn)
	_, aInit := snap.StepGrid()
	ckpt := filepath.Join(cfg.OutputDir, "ckpt.sdf")
	for k := 1; k < cfg.NSteps; k++ {
		// The epoch the engine reaches after k steps (step.Block.Advance).
		snap.ScaleFac *= math.Exp(fresh.DlnA)
		snap.SetStepGrid(k, aInit)
		if err := sdf.Write(ckpt, snap); err != nil {
			t.Fatal(err)
		}
		restart, err := stageClusterRun(cfg, cfg.OutputDir, ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(restart.DlnA) != math.Float64bits(fresh.DlnA) {
			t.Errorf("restart from step %d: DlnA %v, fresh run %v", k, restart.DlnA, fresh.DlnA)
		}
	}
}

// runClusterChan stages cfg (from snapshotIn when non-empty) and drives the
// rank body on the in-process channel world — the transport-free way to get
// cluster checkpoints and results.
func runClusterChan(t *testing.T, cfg Config, snapshotIn string) cluster.Spec {
	t.Helper()
	spec, err := stageClusterRun(cfg, cfg.OutputDir, snapshotIn)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.NewWorld(spec.N).Run(func(r *comm.Rank) error {
		return cluster.RankRun(r, spec)
	}); err != nil {
		t.Fatal(err)
	}
	return spec
}

func readSnapshot(t *testing.T, path string) *sdf.Snapshot {
	t.Helper()
	snap, err := sdf.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCheckpointCadenceIdenticalAcrossFabrics pins the one checkpoint cadence
// (step.CheckpointDue): ranks 2, 4 steps, a checkpoint every 2 leaves the
// step-2 checkpoint — and no step-4-of-4 one, which -restart would refuse —
// whether the Config runs as Simulation.Run on "chan", as cluster.RankRun on
// the channel world or as supervised TCP worker processes, and with global
// stepping the three checkpoints hold the same particle bytes.
func TestCheckpointCadenceIdenticalAcrossFabrics(t *testing.T) {
	base := clusterConfig(t)
	base.NSteps, base.CheckpointEvery = 4, 2
	legs := []struct {
		name string
		run  func(cfg Config) error
	}{
		{"Simulation.Run on chan", func(cfg Config) error {
			cfg.Transport = "chan"
			sim, err := New(cfg)
			if err != nil {
				return err
			}
			return sim.Run()
		}},
		{"RankRun on the channel world", func(cfg Config) error { runClusterChan(t, cfg, ""); return nil }},
		{"RunClusterSupervised", func(cfg Config) error {
			_, err := RunClusterSupervised(cfg, ClusterRunOptions{})
			return err
		}},
	}
	if testing.Short() {
		legs = legs[:2] // without the multi-process leg
	}
	var ref *sdf.Snapshot
	for _, leg := range legs {
		cfg := base
		cfg.OutputDir = t.TempDir()
		if err := leg.run(cfg); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		ckpt := readSnapshot(t, filepath.Join(cfg.OutputDir, cfg.Name+"-ckpt.sdf"))
		if done, _ := ckpt.StepGrid(); done != 2 {
			t.Errorf("%s: checkpoint left behind completed step %d of %d, want 2", leg.name, done, cfg.NSteps)
		}
		if ref == nil {
			ref = ckpt
			continue
		}
		if ckpt.ScaleFac != ref.ScaleFac || ckpt.MomentumScaleFac != ref.MomentumScaleFac {
			t.Errorf("%s: checkpoint epochs a=%v a_mom=%v, want %v / %v", leg.name,
				ckpt.ScaleFac, ckpt.MomentumScaleFac, ref.ScaleFac, ref.MomentumScaleFac)
		} else if differ, total, _ := differingComponents(t, ref.Particles, ckpt.Particles, cfg.BoxSize); differ != 0 {
			t.Errorf("%s: checkpoint differs from the chan run's in %d of %d components", leg.name, differ, total)
		}
	}
}

// TestClusterCheckpointInterchange pins that cluster and Simulation
// checkpoints carry the same step-grid metadata: each kind restores through
// the other's entry point and continues the original grid.
func TestClusterCheckpointInterchange(t *testing.T) {
	cfg := clusterConfig(t)
	cfg.CheckpointEvery = 2 // of 3 steps
	aFinal := 1 / (1 + cfg.ZFinal)

	t.Run("cluster checkpoint into Simulation", func(t *testing.T) {
		spec := runClusterChan(t, cfg, "")
		_, aInit := readSnapshot(t, spec.SnapshotIn).StepGrid()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RestoreCheckpoint(spec.CheckpointPath); err != nil {
			t.Fatal(err)
		}
		if sim.StepCount != 2 || sim.AInit != aInit {
			t.Fatalf("restored step=%d a_init=%v, want step=2 a_init=%v", sim.StepCount, sim.AInit, aInit)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if sim.StepCount != cfg.NSteps || math.Abs(sim.A-aFinal) > 1e-12 {
			t.Errorf("restored run ended at step %d a=%v, want step %d a=%v", sim.StepCount, sim.A, cfg.NSteps, aFinal)
		}
	})

	t.Run("Simulation checkpoint into cluster", func(t *testing.T) {
		if testing.Short() {
			t.Skip("multi-process cluster test skipped in -short")
		}
		single := cfg
		single.Ranks, single.Transport = 0, ""
		single.OutputDir = t.TempDir()
		sim, err := New(single)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		result, err := RunClusterSupervised(cfg, ClusterRunOptions{SnapshotIn: sim.CheckpointPath()})
		if err != nil {
			t.Fatal(err)
		}
		out := readSnapshot(t, result)
		if stepsDone, aInit := out.StepGrid(); stepsDone != cfg.NSteps || aInit != sim.AInit {
			t.Errorf("cluster finished at step=%d a_init=%v, want step=%d a_init=%v", stepsDone, aInit, cfg.NSteps, sim.AInit)
		}
		if math.Abs(out.ScaleFac-aFinal) > 1e-12 || out.MomentumScaleFac != out.ScaleFac {
			t.Errorf("cluster result at a=%v a_mom=%v, want both %v", out.ScaleFac, out.MomentumScaleFac, aFinal)
		}
	})
}

// TestRunWritesPeriodicCheckpoints covers the single-process analogue: with
// CheckpointEvery set, Run leaves a restartable checkpoint behind, and a run
// restored from it finishes bit-identical to the uninterrupted one.
func TestRunWritesPeriodicCheckpoints(t *testing.T) {
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 2
	cfg.OutputDir = t.TempDir()
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(full.CheckpointPath()); err != nil {
		t.Fatal(err)
	}
	// NSteps=6, CheckpointEvery=2: checkpoints after steps 2 and 4; the
	// final step is covered by the run's own output, not a checkpoint.
	if restored.StepCount != 4 {
		t.Fatalf("last checkpoint at step %d, want 4", restored.StepCount)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if restored.A != full.A || restored.AMom != full.AMom {
		t.Fatalf("epochs differ after resume: a %v/%v a_mom %v/%v", restored.A, full.A, restored.AMom, full.AMom)
	}
	for i := range full.P.Pos {
		if full.P.Pos[i] != restored.P.Pos[i] || full.P.Mom[i] != restored.P.Mom[i] {
			t.Fatalf("particle %d differs after periodic-checkpoint resume", i)
		}
	}
}

func TestConfigValidatesTransportAndCheckpointing(t *testing.T) {
	base := checkpointConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown transport", func(c *Config) { c.Transport = "carrier-pigeon" }},
		{"tcp without ranks", func(c *Config) { c.Transport = "tcp" }},
		{"negative checkpoint_every", func(c *Config) { c.CheckpointEvery = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
	ok := base
	ok.Transport = "tcp"
	ok.Ranks = 2
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tcp config rejected: %v", err)
	}
	// checkpoint_every + block_steps is valid now that checkpoints land only
	// at synchronized block boundaries.
	ok = base
	ok.CheckpointEvery = 2
	ok.BlockSteps = 2
	if err := ok.Validate(); err != nil {
		t.Errorf("checkpoint_every with block_steps rejected: %v", err)
	}
}
