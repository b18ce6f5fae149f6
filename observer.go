package twohot

import (
	"twohot/internal/core"
	"twohot/internal/particle"
)

// StepInfo is the diagnostic bundle delivered to observers: where the
// simulation is on its step grid, the last force result, and cheap state
// summaries.
type StepInfo struct {
	// Step is the number of completed steps (Simulation.StepCount).
	Step int
	// A and Z are the scale factor and redshift of the positions.
	A, Z float64
	// DlnA is the base step size of the step just taken (0 for
	// synchronization events).
	DlnA float64
	// Force is the most recent force result (Simulation.LastForce): counters,
	// traversal/build statistics, timings, and — for solvers that compute
	// one — the potential.
	Force *core.Result
	// Rungs is the particle count per timestep rung of the current block
	// (nil outside block stepping).
	Rungs []int
	// Energy returns the peculiar kinetic and potential tallies of the
	// state the info describes (Simulation.EnergyTally), computed lazily on
	// first call and memoized — observers that ignore energies cost the
	// stepping loop nothing.  Potential is 0 when the solver does not
	// compute kernel sums; during a run the momenta trail the positions by
	// half a step, so the tallies are exact only after Synchronize.  Call
	// it inside the observer hook: it reads the live simulation state,
	// which moves on once the hook returns.
	Energy func() (kinetic, potential float64)
}

// Observer receives simulation lifecycle hooks.  Implementations are called
// synchronously from the stepping loop, in registration order; a heavy
// observer slows the run down but cannot corrupt it (everything it sees is
// read-only by convention).  Use ObserverFuncs to implement a subset — a
// progress callback is ObserverFuncs{Step: fn}.
type Observer interface {
	// OnStep fires after every completed step (StepOnce or a Run
	// iteration), with DlnA set to the step size.
	OnStep(info StepInfo)
	// OnForce fires after every force solve — including each substep of a
	// block step and the solves issued by Synchronize or Accelerations.
	// A TreePM block step's substeps after the first are masked solves:
	// their Result holds the short range alone, and only the block's first
	// substep and Synchronize return the mesh long range (Result.Long).
	OnForce(res *core.Result)
	// OnSynchronize fires after Synchronize closes the leapfrog (positions
	// and momenta at the same epoch).
	OnSynchronize(info StepInfo)
}

// ObserverFuncs adapts free functions to the Observer interface; nil fields
// are skipped.
type ObserverFuncs struct {
	Step  func(info StepInfo)
	Force func(res *core.Result)
	Sync  func(info StepInfo)
}

func (o ObserverFuncs) OnStep(info StepInfo) {
	if o.Step != nil {
		o.Step(info)
	}
}

func (o ObserverFuncs) OnForce(res *core.Result) {
	if o.Force != nil {
		o.Force(res)
	}
}

func (o ObserverFuncs) OnSynchronize(info StepInfo) {
	if o.Sync != nil {
		o.Sync(info)
	}
}

// AddObserver registers an observer for all subsequent steps, force solves
// and synchronizations.  Observers run in registration order.
func (s *Simulation) AddObserver(obs Observer) {
	s.observers = append(s.observers, obs)
}

// EnergyTally returns the peculiar kinetic and potential energy of the
// current state: T = Σ ½ m (|p|/a)², U = -½ Σ m Pot/a (Pot as last filled by
// a force solve; 0 for solvers without potential support).  Exact only on a
// synchronized state — during a run the momenta trail the positions by half
// a step.
func (s *Simulation) EnergyTally() (kinetic, potential float64) {
	if s.P == nil {
		return 0, 0
	}
	a := s.A
	for i := range s.P.Mom {
		v := s.P.Mom[i].Norm() / a
		kinetic += 0.5 * s.P.Mass[i] * v * v
	}
	for i := range s.P.Pot {
		potential -= 0.5 * s.P.Mass[i] * s.P.Pot[i] / a
	}
	return kinetic, potential
}

// stepInfo assembles the observer payload for the current state.
func (s *Simulation) stepInfo(dlnA float64) StepInfo {
	var kin, pot float64
	tallied := false
	return StepInfo{
		Step:  s.StepCount,
		A:     s.A,
		Z:     s.Redshift(),
		DlnA:  dlnA,
		Force: s.LastForce,
		Rungs: s.RungHistogram(),
		Energy: func() (float64, float64) {
			if !tallied {
				kin, pot = s.EnergyTally()
				tallied = true
			}
			return kin, pot
		},
	}
}

func (s *Simulation) notifyStep(dlnA float64) {
	if len(s.observers) == 0 {
		return
	}
	info := s.stepInfo(dlnA)
	for _, o := range s.observers {
		o.OnStep(info)
	}
}

func (s *Simulation) notifySynchronize() {
	if len(s.observers) == 0 {
		return
	}
	info := s.stepInfo(0)
	for _, o := range s.observers {
		o.OnSynchronize(info)
	}
}

// observedForcer is the step.Forcer the stepping engines drive: it forwards
// to the simulation's solver, records LastForce, and fans every result out
// to the OnForce observers — so every solve is observed no matter which
// engine or entry point issued it.
type observedForcer struct {
	s *Simulation
}

func (o observedForcer) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	res, err := o.s.Solver().ActiveForces(p, active, moved)
	if err != nil {
		return nil, err
	}
	o.s.LastForce = res
	for _, ob := range o.s.observers {
		ob.OnForce(res)
	}
	return res, nil
}
