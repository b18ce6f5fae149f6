package twohot

// Observer and Stepper seam tests: hook firing semantics, progress
// callbacks, custom-engine injection, and the pin that the rung-aware work
// decay steers only schedules — never a trajectory bit.

import (
	"testing"

	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/step"
)

func TestObserversFire(t *testing.T) {
	cfg := conformanceConfig(SolverTree)
	var steps, forces, syncs int
	var progress []int
	var sim *Simulation
	sim, err := New(cfg,
		WithObserver(ObserverFuncs{
			Step: func(info StepInfo) {
				steps++
				if info.Force == nil {
					t.Error("OnStep delivered no force result")
				}
				if info.DlnA <= 0 {
					t.Errorf("OnStep delivered dlnA %g", info.DlnA)
				}
				if kin, _ := info.Energy(); kin <= 0 {
					t.Errorf("OnStep delivered kinetic energy %g", kin)
				}
				if info.Step != sim.StepCount {
					t.Errorf("OnStep step %d, simulation at %d", info.Step, sim.StepCount)
				}
			},
			Force: func(res *core.Result) {
				forces++
				if res == nil || res.Acc == nil {
					t.Error("OnForce delivered an empty result")
				}
			},
			Sync: func(info StepInfo) { syncs++ },
		}),
		// A progress callback is a second Step hook.
		WithObserver(ObserverFuncs{Step: func(info StepInfo) { progress = append(progress, info.Step) }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != cfg.NSteps {
		t.Errorf("OnStep fired %d times, want %d", steps, cfg.NSteps)
	}
	// Every step solves once, and the closing synchronization solves again.
	if forces < cfg.NSteps+1 {
		t.Errorf("OnForce fired %d times, want at least %d", forces, cfg.NSteps+1)
	}
	if syncs != 1 {
		t.Errorf("OnSynchronize fired %d times, want 1", syncs)
	}
	if len(progress) != cfg.NSteps || progress[0] != 1 || progress[len(progress)-1] != cfg.NSteps {
		t.Errorf("progress observer saw steps %v, want 1..%d", progress, cfg.NSteps)
	}
}

// countingStepper wraps an engine and records its calls — a stand-in for an
// externally supplied integrator (the seam a distributed block stepper will
// use).
type countingStepper struct {
	inner    Stepper
	advances int
	syncs    int
}

func (c *countingStepper) Advance(f step.Forcer, p *particle.Set, clk *step.Clock, dlnA float64) (*core.Result, error) {
	c.advances++
	return c.inner.Advance(f, p, clk, dlnA)
}

func (c *countingStepper) Synchronize(f step.Forcer, p *particle.Set, clk *step.Clock) (*core.Result, error) {
	c.syncs++
	return c.inner.Synchronize(f, p, clk)
}

func (c *countingStepper) CheckpointReady(aMom float64) error { return c.inner.CheckpointReady(aMom) }

func (c *countingStepper) Reset() { c.inner.Reset() }

// TestWithStepperInjection pins the Stepper seam: a custom engine drives the
// run, and a delegating wrapper around the built-in global leapfrog must
// reproduce the default run bit for bit.
func TestWithStepperInjection(t *testing.T) {
	cfg := conformanceConfig(SolverTree)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	par := ref.Par
	cs := &countingStepper{inner: step.NewEngine(par, cfg.BoxSize, cfg.NGrid*cfg.NGrid*cfg.NGrid, 0, 0)}
	sim, err := New(cfg, WithStepper(cs))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if cs.advances != cfg.NSteps || cs.syncs == 0 {
		t.Fatalf("custom stepper saw %d advances and %d syncs", cs.advances, cs.syncs)
	}
	for i := range ref.P.Pos {
		if ref.P.Pos[i] != sim.P.Pos[i] || ref.P.Mom[i] != sim.P.Mom[i] {
			t.Fatalf("particle %d: injected global engine diverged from the default", i)
		}
	}
}

// TestWorkDecayNeverChangesTrajectory pins the satellite's safety contract:
// the between-block work decay adjusts only the scheduling weights, so a
// multi-rung block-stepped run with decay on and off must produce
// bit-identical positions and momenta (the weights feed domain.SplitWeighted
// shard cuts, which are schedule-only by the PR 3 equivalence guarantee).
func TestWorkDecayNeverChangesTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rung integration run")
	}
	cfg := conformanceConfig(SolverTree)
	cfg.BlockSteps = 3
	cfg.RungDisplacementFrac = 0.01

	// The decayed weights live between a block's end and the next solve
	// (which consumes them for shard balancing, then refreshes them), so the
	// comparison snapshots them per step through an observer.
	run := func(decay float64) (*Simulation, [][]float64) {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sep := cfg.BoxSize / float64(cfg.NGrid)
		eng := step.NewBlock(sim.Par, cfg.BoxSize, sep, cfg.BlockSteps, cfg.RungDisplacementFrac)
		eng.WorkDecay = decay
		WithStepper(eng)(sim)
		var snaps [][]float64
		sim.AddObserver(ObserverFuncs{Step: func(StepInfo) {
			snaps = append(snaps, append([]float64(nil), sim.P.Work...))
		}})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if eng.RungHistogram() == nil {
			t.Fatal("block engine kept no state")
		}
		return sim, snaps
	}
	on, onW := run(step.DefaultWorkDecay)
	off, offW := run(0)
	if maxRung(on) == 0 {
		t.Skip("criterion produced a single rung; decay unexercised")
	}
	for i := range on.P.Pos {
		if on.P.Pos[i] != off.P.Pos[i] || on.P.Mom[i] != off.P.Mom[i] {
			t.Fatalf("particle %d: work decay changed the trajectory", i)
		}
	}
	decayed := false
	for s := range onW {
		for i := range onW[s] {
			if onW[s][i] != offW[s][i] {
				decayed = true
			}
		}
	}
	if !decayed {
		t.Error("work decay left every weight untouched in a multi-rung run")
	}
}
