package twohot

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/ic"
	"twohot/internal/particle"
	"twohot/internal/sdf"
	"twohot/internal/step"
	"twohot/internal/transfer"
	"twohot/internal/vec"
)

// Simulation is a running cosmological N-body simulation.  Its engine is
// composed of three pluggable pieces: a ForceSolver (the gravity backend), a
// Stepper (the time integrator) and any number of Observers (diagnostic
// hooks).  The solver and the stepper are built from the Config the first
// time Solver()/Stepper() is asked for them, or injected through the
// functional options of New.
type Simulation struct {
	Cfg  Config
	Par  cosmo.Params
	Spec *transfer.Spectrum

	P *particle.Set

	// A is the scale factor of the positions; AMom is the scale factor of
	// the canonical momenta (half a step behind once the leapfrog is
	// primed), which is exactly the offset a checkpoint must preserve for
	// the restart to stay second-order accurate (Section 2.3).
	A    float64
	AMom float64

	// AInit is the scale factor at which the particle load was installed.
	// Run anchors its logarithmic step grid here (not at the current
	// epoch), and checkpoints carry it, so a restarted run continues on
	// exactly the grid the uninterrupted run would have used.
	AInit float64

	StepCount int

	// Diagnostics of the last force computation.
	LastForce *core.Result

	solver      ForceSolver
	stepper     Stepper
	observers   []Observer
	analysisObs []AnalysisObserver
}

// New validates the configuration and prepares a simulation (without
// generating particles yet).  Options can inject a custom force solver,
// stepping engine or observers; absent those, Solver() and Stepper() build
// theirs from the configuration on first use.
func New(cfg Config, opts ...Option) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	par, err := cosmo.ByName(cfg.Cosmology)
	if err != nil {
		return nil, err
	}
	if cfg.Sigma8 > 0 {
		par.Sigma8 = cfg.Sigma8
	}
	s := &Simulation{
		Cfg:  cfg,
		Par:  par,
		Spec: transfer.NewSpectrum(par, transfer.EisensteinHu),
	}
	for _, opt := range opts {
		opt(s)
	}
	// Block stepping issues active-subset solves; fail at construction, not
	// mid-run, when the solver (configured or injected) cannot serve them.
	// Whether block stepping is coming is read from the configuration and
	// from a directly injected multi-level engine (a one-level engine is the
	// global leapfrog: every substep fully active); a custom stepper that
	// wraps one escapes this early gate and hits the solver's own error on
	// the first partially-active substep instead.
	needsActive := cfg.BlockSteps > 0
	if b, ok := s.stepper.(*step.Block); ok && b.Levels > 1 {
		needsActive = true
	}
	// Solver() builds the configured backend when none was injected:
	// construction only applies defaults (no trees, no meshes) and the
	// simulation keeps it.
	if needsActive && !s.Solver().Capabilities().ActiveSubsets {
		return nil, fmt.Errorf("twohot: block stepping requires a solver with active-subset support; %q lacks it", s.Solver().Name())
	}
	return s, nil
}

// Solver returns the simulation's force solver, constructing it from the
// configuration on first use.  Only the configured backend is ever built —
// a pure tree run allocates no mesh and a pure mesh run no tree.
func (s *Simulation) Solver() ForceSolver {
	if s.solver == nil {
		fs, err := NewForceSolver(s.Cfg)
		if err != nil {
			// New validated the configuration; only an injected-then-cleared
			// state could get here.
			panic(err)
		}
		s.solver = fs
	}
	return s.solver
}

// Stepper returns the simulation's time-integration engine, constructing it
// from the configuration on first use: the block-timestep engine with
// Config.BlockSteps rung levels, one level — the global leapfrog — when
// BlockSteps is 0.
func (s *Simulation) Stepper() Stepper {
	if s.stepper == nil {
		c := s.Cfg
		s.stepper = step.NewEngine(s.Par, c.BoxSize, c.NGrid*c.NGrid*c.NGrid, c.BlockSteps, c.RungDisplacementFrac)
	}
	return s.stepper
}

// forcer returns the observer-instrumented step.Forcer the engines drive.
func (s *Simulation) forcer() step.Forcer { return observedForcer{s} }

// resetEngine drops the cross-step reuse state of whichever engine pieces
// exist, as after installing an unrelated particle load.
func (s *Simulation) resetEngine() {
	if s.solver != nil {
		s.solver.Reset()
	}
	if s.stepper != nil {
		s.stepper.Reset()
	}
}

// NumParticles returns the current particle count.
func (s *Simulation) NumParticles() int {
	if s.P == nil {
		return 0
	}
	return s.P.Len()
}

// Redshift returns the current redshift of the positions.
func (s *Simulation) Redshift() float64 { return 1/s.A - 1 }

// GenerateICs creates the initial particle load from the linear power
// spectrum at z_init.
func (s *Simulation) GenerateICs() error {
	cfg := s.Cfg
	parts, err := ic.Generate(s.Par, s.Spec, ic.Options{
		NGrid:   cfg.NGrid,
		BoxSize: cfg.BoxSize,
		ZInit:   cfg.ZInit,
		Seed:    cfg.Seed,
		Use2LPT: cfg.Use2LPT,
		UseDEC:  cfg.UseDEC,
		Sphere:  cfg.SphereMode,
		Workers: cfg.Workers,
	})
	if err != nil {
		return err
	}
	set := particle.New(parts.N())
	for i := 0; i < parts.N(); i++ {
		set.Append(parts.Pos[i], parts.Mom[i], parts.Mass, int64(i))
	}
	s.P = set
	s.A = parts.A
	s.AMom = parts.A
	s.AInit = parts.A
	s.StepCount = 0
	s.resetEngine()
	return nil
}

// SetParticles installs an externally prepared particle set at scale factor a
// with synchronized momenta.
func (s *Simulation) SetParticles(set *particle.Set, a float64) {
	s.P = set
	s.A = a
	s.AMom = a
	s.AInit = a
	s.StepCount = 0
	s.resetEngine()
}

// Accelerations computes comoving accelerations for the current particle
// positions with the simulation's force solver and scatters Acc/Pot/Work
// back into the particle set (for capable backends).
//
// The tree backend is the stepping pipeline of the paper: each solve feeds
// the next one — the sorted particle order seeds the next incremental tree
// rebuild and the per-particle interaction counts rebalance the next solve's
// worker shards (or, with Cfg.Ranks > 1, the next distributed domain
// decomposition).  All of this state rides on the solver; none of it changes
// a single result bit.
//
// With Cfg.Ranks > 1 the particle set is regrouped by owning rank in place:
// positions, momenta, accelerations and work travel together, so stepping
// continues transparently, but callers holding on to a prior particle
// ordering must match by ID.
func (s *Simulation) Accelerations() ([]vec.V3, error) {
	if s.P == nil {
		return nil, fmt.Errorf("twohot: no particles loaded")
	}
	res, err := s.forcer().ActiveForces(s.P, nil, nil)
	if err != nil {
		return nil, err
	}
	step.Scatter(s.P, res, nil)
	return res.Acc, nil
}

// StepOnce advances the simulation by one step of size dlnA through the
// stepping engine: one block of the hierarchical block-timestep integrator,
// which with every particle on rung 0 — always, when Cfg.BlockSteps is 0 —
// is one step of the symplectic comoving leapfrog (Quinn et al. 1997).  The
// first call primes the momenta's half-step offset.  OnStep observers fire
// after the step completes; OnForce observers fire on every solve inside it.
func (s *Simulation) StepOnce(dlnA float64) error {
	if s.P == nil {
		return fmt.Errorf("twohot: no particles loaded")
	}
	if dlnA <= 0 {
		return fmt.Errorf("twohot: dlnA must be positive")
	}
	clk := step.Clock{A: s.A, AMom: s.AMom}
	if _, err := s.Stepper().Advance(s.forcer(), s.P, &clk, dlnA); err != nil {
		return err
	}
	s.A, s.AMom = clk.A, clk.AMom
	s.StepCount++
	s.notifyStep(dlnA)
	return nil
}

// Synchronize closes the leapfrog by kicking the momenta from the half step
// up to the position time, so that positions and velocities refer to the same
// epoch (used before measurements that need velocities and before writing a
// synchronized snapshot).  In a block-stepped run every particle trails by
// its own rung's half step, so the closing kick is per-particle.
func (s *Simulation) Synchronize() error {
	if s.P == nil {
		return nil
	}
	clk := step.Clock{A: s.A, AMom: s.AMom}
	if _, err := s.Stepper().Synchronize(s.forcer(), s.P, &clk); err != nil {
		return err
	}
	s.A, s.AMom = clk.A, clk.AMom
	s.notifySynchronize()
	return nil
}

// Run evolves the simulation to z_final in Cfg.NSteps equal logarithmic
// steps.  The step grid is anchored at the epoch the particle load was
// installed (AInit) and offset by StepCount, both of which checkpoints
// preserve — so a run restored mid-way finishes the remaining steps of the
// original grid, reproducing the uninterrupted run bit for bit.  Progress
// reporting happens through observers (WithObserver, AddObserver); the run
// ends with a Synchronize.
func (s *Simulation) Run() error { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is consulted
// once before the first step and again at every step boundary, so a cancel
// never interrupts a step mid-flight — the simulation is always left in the
// same state a sequence of StepOnce calls would have produced.  On
// cancellation it returns an error wrapping context.Cause(ctx) (so
// errors.Is(err, context.Canceled) works) without the final Synchronize;
// the caller decides what the stop means.  In particular a suspend is
// cancel + WriteCheckpoint: the stopped state sits on a step boundary of
// the original grid, so a fresh Simulation restored from that checkpoint
// and driven to completion reproduces the uninterrupted run bit for bit
// (block-stepped multi-rung states synchronize first, exactly like Run's
// periodic checkpoints — consult Stepper().CheckpointReady).
func (s *Simulation) RunContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return runCanceled(ctx, s.StepCount)
	}
	if s.P == nil {
		if err := s.GenerateICs(); err != nil {
			return err
		}
	}
	aFinal := 1 / (1 + s.Cfg.ZFinal)
	if s.StepCount >= s.Cfg.NSteps {
		// The previous grid is complete (e.g. a staged run that lowered
		// ZFinal and called Run again): start a fresh NSteps grid from the
		// current epoch instead of silently doing nothing.
		s.AInit = s.A
		s.StepCount = 0
	}
	aStart := s.AInit
	if aStart == 0 {
		// No anchor recorded (a particle load assigned to P directly):
		// anchor at the current epoch.
		aStart = s.A
		s.AInit = aStart
	}
	dlnA := s.Cfg.dlnA(aStart)
	sched := s.Cfg.Analysis.schedule()
	for s.StepCount < s.Cfg.NSteps && s.A < aFinal-1e-12 {
		if err := ctx.Err(); err != nil {
			return runCanceled(ctx, s.StepCount)
		}
		zPrev := s.Redshift()
		if err := s.StepOnce(dlnA); err != nil {
			return err
		}
		// Scheduled in-situ analysis fires on the step that crossed a
		// requested redshift or cadence mark — stateless crossing detection
		// on (StepCount, zPrev, zCur), so a resumed run fires on exactly the
		// steps the uninterrupted run fires on.  It runs before a due
		// checkpoint so one synchronize serves both; the leapfrog is closed
		// first when the configuration asks for synchronized outputs or the
		// block-stepped momenta sit at per-particle epochs (the same gate
		// checkpoints use below).
		if due := sched.Due(s.StepCount, zPrev, s.Redshift()); len(due) > 0 {
			if s.Cfg.Analysis.Synchronize || s.Stepper().CheckpointReady(s.AMom) != nil {
				if err := s.Synchronize(); err != nil {
					return err
				}
			}
			if err := s.runScheduledAnalysis(due); err != nil {
				return err
			}
		}
		// Periodic crash protection: the checkpoint carries the leapfrog
		// half-step offset and the step-grid anchor, so a run restored from
		// it finishes the remaining steps bit-identically.  Checkpoints land
		// only at synchronized block boundaries: a multi-rung block leaves
		// per-particle momentum epochs a single-epoch snapshot cannot
		// represent, so a due checkpoint first closes the leapfrog at the
		// boundary (all-rung-0 and global states are already representable
		// and are written unchanged, preserving their bit-identity).
		if step.CheckpointDue(s.StepCount, s.Cfg.CheckpointEvery, s.Cfg.NSteps) {
			if s.Stepper().CheckpointReady(s.AMom) != nil {
				if err := s.Synchronize(); err != nil {
					return err
				}
			}
			if err := s.WriteCheckpoint(s.CheckpointPath()); err != nil {
				return err
			}
		}
	}
	if err := s.Synchronize(); err != nil {
		return err
	}
	// The end-of-run output measures the final synchronized state.
	return s.runScheduledAnalysis(sched.End(s.StepCount))
}

// runCanceled renders a RunContext cancellation: the chain always carries
// ctx.Err() (context.Canceled / DeadlineExceeded, so errors.Is works on the
// standard sentinels), with a distinct cancel cause surfaced in the message.
func runCanceled(ctx context.Context, step int) error {
	err := ctx.Err()
	if cause := context.Cause(ctx); cause != nil && !errors.Is(err, cause) {
		return fmt.Errorf("twohot: run canceled at step %d (%v): %w", step, cause, err)
	}
	return fmt.Errorf("twohot: run canceled at step %d: %w", step, err)
}

// CheckpointPath is where Run writes its periodic checkpoints when
// Cfg.CheckpointEvery > 0: "<name>-ckpt.sdf" in the output directory.  Pass
// it back through RestoreCheckpoint (or cmd/2hot's -restart flag) to resume.
func (s *Simulation) CheckpointPath() string {
	return s.OutputPath(s.Cfg.Name + "-ckpt.sdf")
}

// RungHistogram returns the particle count per timestep rung of the current
// block (index = rung level), or nil when Cfg.BlockSteps is 0, the stepper
// is a custom one, or no block step has run yet.
func (s *Simulation) RungHistogram() []int {
	if b, ok := s.stepper.(*step.Block); ok && s.Cfg.BlockSteps > 0 {
		return b.RungHistogram()
	}
	return nil
}

// Snapshot converts the current state into an SDF snapshot structure.
func (s *Simulation) Snapshot() *sdf.Snapshot {
	snap := &sdf.Snapshot{
		Particles:        s.P,
		ScaleFac:         s.A,
		MomentumScaleFac: s.AMom,
		BoxSize:          s.Cfg.BoxSize,
		Cosmology:        s.Cfg.Cosmology,
		Extra:            map[string]string{"name": s.Cfg.Name},
	}
	snap.SetStepGrid(s.StepCount, s.AInit)
	return snap
}

// WriteCheckpoint saves the complete state, including the leapfrog offset, so
// a restart continues with second-order accuracy.
//
// A multi-rung block-stepped run carries one momentum epoch per particle,
// which the snapshot format cannot represent; writing such a state blind
// would make the restart silently integrate with wrong kick intervals.  The
// stepper's CheckpointReady is consulted first and its refusal returned as
// an error — call Synchronize before checkpointing (Run already ends with
// one), after which the checkpoint is well-defined.
func (s *Simulation) WriteCheckpoint(path string) error {
	if s.P == nil {
		return fmt.Errorf("twohot: no particles loaded; nothing to checkpoint")
	}
	if s.stepper != nil {
		if err := s.stepper.CheckpointReady(s.AMom); err != nil {
			return fmt.Errorf("twohot: %w", err)
		}
	}
	return sdf.Write(path, s.Snapshot())
}

// RestoreCheckpoint loads a checkpoint previously written by WriteCheckpoint,
// including the step counter and the step-grid anchor, so a subsequent Run
// continues the original integration rather than starting a fresh grid.
func (s *Simulation) RestoreCheckpoint(path string) error {
	snap, err := sdf.Read(path)
	if err != nil {
		return err
	}
	s.P = snap.Particles
	s.A = snap.ScaleFac
	s.AMom = snap.MomentumScaleFac
	if snap.BoxSize > 0 {
		s.Cfg.BoxSize = snap.BoxSize
	}
	// An anchorless checkpoint reports step 0 anchored at its own epoch: Run
	// starts a fresh NSteps grid there.
	s.StepCount, s.AInit = snap.StepGrid()
	// The restored particles share nothing with whatever the solver last
	// built; drop the cross-step reuse state.  Stepper state is dropped
	// too: checkpoints are written synchronized (Run ends with Synchronize),
	// so a restarted block-step run re-primes its per-particle momentum
	// epochs exactly like a fresh start does.
	s.resetEngine()
	return nil
}

// OutputPath joins the configured output directory with a file name.
func (s *Simulation) OutputPath(name string) string {
	if s.Cfg.OutputDir == "" {
		return name
	}
	return filepath.Join(s.Cfg.OutputDir, name)
}
