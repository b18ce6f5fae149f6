package twohot

import (
	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/step"
)

// Stepper is the pluggable time-integration engine of a Simulation: it
// advances a particle set by leapfrog steps of size dlnA (in ln a) against
// whatever ForceSolver the simulation carries, and closes the leapfrog when
// asked to synchronize.  The built-in engine is internal/step's hierarchical
// block-timestep integrator (step.Block), whose one-level form is the global
// leapfrog; a Simulation takes the one step.NewEngine builds for
// Config.BlockSteps (the call every stepping loop shares), or accepts a
// custom engine via WithStepper.
//
// Both Advance and Synchronize mutate the particle set and the clock in
// place and return the last force result of the call (nil when no solve was
// needed).
//
// CheckpointReady is part of the contract — not an optional extra — so a
// wrapper around an engine cannot silently drop the checkpoint gate: a
// stepper carrying per-particle state a single-epoch snapshot cannot
// represent (a multi-rung block) must refuse, and WriteCheckpoint
// propagates the refusal.  Engines without such state return nil
// unconditionally.
type Stepper interface {
	Advance(f step.Forcer, p *particle.Set, clk *step.Clock, dlnA float64) (*core.Result, error)
	Synchronize(f step.Forcer, p *particle.Set, clk *step.Clock) (*core.Result, error)
	// CheckpointReady reports whether the stepper's integrator state
	// collapses to the single momentum epoch aMom (see WriteCheckpoint).
	CheckpointReady(aMom float64) error
	// Reset drops per-particle integrator history, as after installing a
	// new particle load.
	Reset()
}
