package twohot

import (
	"os"
	"path/filepath"
	"testing"

	"twohot/internal/sdf"
)

// Checkpoint continuity: a run interrupted by WriteCheckpoint/Restore must
// finish BIT-IDENTICAL to the uninterrupted run.  This leans on every layer
// of the stepping pipeline at once — the checkpoint round-trips positions,
// momenta and the leapfrog offset exactly (raw float64 records, 17-digit
// scale factors), Run continues the original step grid (AInit + StepCount
// travel in the header), and the restarted run's first from-scratch tree
// build must match the uninterrupted run's incremental rebuild bit for bit,
// which is precisely the tentpole's equivalence guarantee.

func checkpointConfig() Config {
	cfg := DefaultConfig()
	cfg.NGrid = 8
	cfg.BoxSize = 64
	cfg.ZInit = 19
	cfg.ZFinal = 4
	cfg.NSteps = 6
	cfg.ErrTol = 1e-4
	cfg.WS = 1
	cfg.LatticeOrder = 2 // exercise the cached-lattice path too
	cfg.PMGrid = 16
	return cfg
}

func TestCheckpointContinuityBitIdentical(t *testing.T) {
	cfg := checkpointConfig()
	path := filepath.Join(t.TempDir(), "mid.sdf")

	// Uninterrupted run, checkpointing on the fly at step 3 (the write must
	// not disturb the trajectory).
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.AddObserver(ObserverFuncs{Step: func(info StepInfo) {
		if info.Step == 3 {
			if err := full.WriteCheckpoint(path); err != nil {
				t.Errorf("mid-run checkpoint: %v", err)
			}
		}
	}})
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}

	// Restored run: a fresh Simulation (cold solver caches, no previous
	// tree) continues from the checkpoint.
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount != 3 {
		t.Fatalf("restored step count %d, want 3", resumed.StepCount)
	}
	if resumed.AMom == resumed.A {
		t.Fatal("checkpoint lost the leapfrog offset")
	}
	if err := resumed.Run(); err != nil {
		t.Fatal(err)
	}

	if resumed.StepCount != full.StepCount {
		t.Fatalf("step counts differ: %d vs %d", resumed.StepCount, full.StepCount)
	}
	if resumed.A != full.A || resumed.AMom != full.AMom {
		t.Fatalf("epochs differ: a %v/%v a_mom %v/%v", resumed.A, full.A, resumed.AMom, full.AMom)
	}
	if resumed.P.Len() != full.P.Len() {
		t.Fatalf("particle counts differ")
	}
	for i := range full.P.Pos {
		if full.P.ID[i] != resumed.P.ID[i] {
			t.Fatalf("particle %d: IDs differ", i)
		}
		if full.P.Pos[i] != resumed.P.Pos[i] {
			t.Fatalf("particle %d: positions differ: %v vs %v (restart is not bit-identical)",
				i, full.P.Pos[i], resumed.P.Pos[i])
		}
		if full.P.Mom[i] != resumed.P.Mom[i] {
			t.Fatalf("particle %d: momenta differ: %v vs %v (restart is not bit-identical)",
				i, full.P.Mom[i], resumed.P.Mom[i])
		}
	}
}

// TestRestoreLegacyCheckpointStartsFreshGrid pins the compatibility rule for
// checkpoints written before the step-grid anchor existed: they carry a step
// counter but no "a_init", and restoring the counter without the anchor would
// make Run compute a full-grid step size yet execute only the remaining steps
// — silently stopping short of z_final.  Such checkpoints must instead fall
// back to the old semantics: a fresh NSteps grid from the restored epoch.
func TestRestoreLegacyCheckpointStartsFreshGrid(t *testing.T) {
	cfg := checkpointConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	snap.Extra["step"] = "3"
	delete(snap.Extra, "a_init")
	path := filepath.Join(t.TempDir(), "legacy.sdf")
	if err := sdf.Write(path, snap); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if restored.StepCount != 0 || restored.AInit != restored.A {
		t.Fatalf("legacy checkpoint restored step=%d a_init=%g; want a fresh grid (0, %g)",
			restored.StepCount, restored.AInit, restored.A)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if restored.StepCount != cfg.NSteps {
		t.Errorf("legacy restore ran %d of %d steps", restored.StepCount, cfg.NSteps)
	}
	if z := restored.Redshift(); z > cfg.ZFinal+1e-6 {
		t.Errorf("legacy restore stopped at z=%.3f, want z_final=%.3f", z, cfg.ZFinal)
	}
}

// TestRestoreCheckpointRejectsCorruptFiles mirrors the sdf-level hardening at
// the API users actually call: a truncated or mangled checkpoint must come
// back as an error — never a panic, never a silently half-loaded state.
func TestRestoreCheckpointRejectsCorruptFiles(t *testing.T) {
	cfg := checkpointConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.sdf")
	if err := sim.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Simulation {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Truncations at several depths, including inside the binary body.
	for _, frac := range []int{0, 1, 4, 2 * len(data) / 3, len(data) - 5} {
		p := filepath.Join(dir, "trunc.sdf")
		if err := os.WriteFile(p, data[:frac], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fresh().RestoreCheckpoint(p); err == nil {
			t.Errorf("truncation to %d bytes restored successfully", frac)
		}
	}
	// A missing file and plain garbage.
	if err := fresh().RestoreCheckpoint(filepath.Join(dir, "missing.sdf")); err == nil {
		t.Error("missing checkpoint restored successfully")
	}
	garbage := filepath.Join(dir, "garbage.sdf")
	if err := os.WriteFile(garbage, []byte("not an sdf file at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fresh().RestoreCheckpoint(garbage); err == nil {
		t.Error("garbage checkpoint restored successfully")
	}
}
