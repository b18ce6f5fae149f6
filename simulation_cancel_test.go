package twohot

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Cooperative cancellation: RunContext stops at a step boundary, leaving the
// simulation in exactly the state a shorter sequence of StepOnce calls would
// have produced — which is what makes "suspend" just cancel + checkpoint, and
// what the serving layer (internal/serve) builds its whole lifecycle on.

// TestRunContextCancelBeforeStart pins that a context canceled before Run
// starts touches nothing: no ICs generated, no steps taken.
func TestRunContextCancelBeforeStart(t *testing.T) {
	sim, err := New(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a canceled context returned %v, want context.Canceled", err)
	}
	if sim.P != nil || sim.StepCount != 0 {
		t.Fatalf("canceled-before-start run mutated the simulation: P=%v steps=%d", sim.P != nil, sim.StepCount)
	}
	// A suspend that lands here has nothing to save: the checkpoint write
	// must say so (it used to dereference the absent particle set).
	path := filepath.Join(t.TempDir(), "empty.sdf")
	if err := sim.WriteCheckpoint(path); err == nil {
		t.Fatal("WriteCheckpoint without particles succeeded")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("WriteCheckpoint without particles left a file behind")
	}
}

// TestRunContextSuspendResumeBitIdentical is the suspend/resume contract: a
// run canceled at a step boundary, checkpointed, and continued by a fresh
// Simulation restored from that checkpoint finishes bit-identical to the
// uninterrupted run of the same configuration.
func TestRunContextSuspendResumeBitIdentical(t *testing.T) {
	cfg := checkpointConfig()

	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}

	// Suspended run: cancel from an observer after step 3 completes; the
	// cancellation lands on the step boundary, where the global stepper's
	// state is checkpoint-representable without a synchronize.
	suspended, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	suspended.AddObserver(ObserverFuncs{Step: func(info StepInfo) {
		if info.Step == 3 {
			cancel(fmt.Errorf("suspend requested"))
		}
	}})
	err = suspended.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled in the chain", err)
	}
	if suspended.StepCount != 3 {
		t.Fatalf("canceled run stopped after %d steps, want 3 (cancel must land on the boundary)", suspended.StepCount)
	}
	path := filepath.Join(t.TempDir(), "suspend.sdf")
	if err := suspended.Stepper().CheckpointReady(suspended.AMom); err != nil {
		// Global stepping: the boundary state is representable as-is.
		t.Fatalf("step-boundary state not checkpoint-ready: %v", err)
	}
	if err := suspended.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// Resume in a cold process stand-in: fresh Simulation, fresh solver.
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	if resumed.StepCount != full.StepCount || resumed.A != full.A || resumed.AMom != full.AMom {
		t.Fatalf("resumed grid differs: steps %d/%d a %v/%v a_mom %v/%v",
			resumed.StepCount, full.StepCount, resumed.A, full.A, resumed.AMom, full.AMom)
	}
	for i := range full.P.Pos {
		if full.P.ID[i] != resumed.P.ID[i] {
			t.Fatalf("particle %d: IDs differ", i)
		}
		if full.P.Pos[i] != resumed.P.Pos[i] || full.P.Mom[i] != resumed.P.Mom[i] {
			t.Fatalf("particle %d: suspended+resumed trajectory is not bit-identical (%v/%v vs %v/%v)",
				i, full.P.Pos[i], full.P.Mom[i], resumed.P.Pos[i], resumed.P.Mom[i])
		}
	}
}
