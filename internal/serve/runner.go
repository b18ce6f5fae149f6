package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	twohot "twohot"
)

// runSim is the goroutine behind one running simulation: it drives the run,
// translates the outcome into the lifecycle state, returns the pool slots and
// closes the event stream on terminal states.
func (s *Server) runSim(sm *sim, ctx context.Context) {
	defer s.wg.Done()
	s.mu.Lock()
	ckpt := sm.ckpt
	s.mu.Unlock()

	err := s.drive(sm, ctx, ckpt)

	s.mu.Lock()
	intent := sm.intent
	switch {
	case err == nil:
		sm.state = StateCompleted
	case errors.Is(err, context.Canceled) && intent == intentSuspend:
		sm.state = StateSuspended
		sm.stats.Suspends++
	case errors.Is(err, context.Canceled) && intent == intentCancel:
		sm.state = StateCanceled
	default:
		sm.state = StateFailed
		sm.errMsg = err.Error()
	}
	sm.finished = time.Now()
	sm.intent = intentNone
	s.publishStateLocked(sm)
	terminal := sm.state.Terminal()
	s.releaseLocked(sm)
	s.mu.Unlock()
	if terminal {
		s.broker.finish(sm.id)
	}
}

// drive runs one (possibly resumed) simulation to completion, suspension,
// cancellation or failure.  On completion the final synchronized state is
// written as "<name>-final.sdf"; on suspension the checkpoint lands at the
// simulation's CheckpointPath and is recorded for the next resume (a run
// suspended before its first step leaves none).  The suspend checkpoint
// closes the leapfrog only when the stepper's step-boundary state is not
// checkpoint-representable (multi-rung block state) — the same gate Run's
// periodic checkpoints use — so global-stepped runs suspend without
// disturbing the trajectory at all.
//
// A panic in the run (a solver invariant tripped by a configuration the
// validation let through) is returned as the job's error: the runner
// goroutine has no caller to unwind to, so left alone it would end the
// process and with it every other tenant's jobs.
func (s *Server) drive(sm *sim, ctx context.Context, ckpt string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: simulation panicked: %v", p)
		}
	}()
	if err := os.MkdirAll(sm.dir, 0o755); err != nil {
		return err
	}
	cfg := sm.cfg
	cfg.Workers = sm.cost
	tw, err := s.newSim(cfg)
	if err != nil {
		return err
	}
	tw.AddObserver(twohot.ObserverFuncs{
		Step: func(info twohot.StepInfo) { s.onStep(sm, tw, info) },
	})
	tw.AddAnalysisObserver(twohot.AnalysisFunc(func(info twohot.AnalysisInfo) {
		s.onAnalysis(sm, info)
	}))
	if ckpt != "" {
		if err := tw.RestoreCheckpoint(ckpt); err != nil {
			return err
		}
		s.onResume(sm, tw)
	}

	runErr := tw.RunContext(ctx)
	if runErr == nil {
		return tw.WriteCheckpoint(filepath.Join(sm.dir, sm.cfg.Name+"-final.sdf"))
	}
	// A suspend that lands before a fresh run generated its particles has no
	// state to checkpoint: the simulation parks without one and a resume
	// starts it fresh, exactly like a suspend while queued.
	if errors.Is(runErr, context.Canceled) && s.intentOf(sm) == intentSuspend && tw.P != nil {
		if tw.Stepper().CheckpointReady(tw.AMom) != nil {
			if err := tw.Synchronize(); err != nil {
				return err
			}
		}
		path := tw.CheckpointPath()
		if err := tw.WriteCheckpoint(path); err != nil {
			return err
		}
		s.mu.Lock()
		sm.ckpt = path
		s.mu.Unlock()
	}
	return runErr
}

func (s *Server) intentOf(sm *sim) intent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sm.intent
}

// stepEvent is the "step" SSE payload.
type stepEvent struct {
	ID    string `json:"id"`
	Stats Stats  `json:"stats"`
}

// analysisEvent is the "analysis" SSE payload.
type analysisEvent struct {
	ID    string  `json:"id"`
	Label string  `json:"label"`
	Path  string  `json:"path,omitempty"`
	Z     float64 `json:"z"`
	Halos int     `json:"halos"`
}

// onStep folds a completed step into the stats snapshot and fans it out.
// It runs on the runner goroutine, synchronously with the stepping loop; the
// broker guarantees the fan-out cannot block it.
func (s *Server) onStep(sm *sim, tw *twohot.Simulation, info twohot.StepInfo) {
	kin, pot := info.Energy()
	n := tw.NumParticles()
	s.mu.Lock()
	sm.stats.Step = info.Step
	sm.stats.Z = info.Z
	sm.stats.A = info.A
	sm.stats.Particles = n
	sm.stats.Kinetic = kin
	sm.stats.Potential = pot
	sm.stats.Rungs = info.Rungs
	snap := sm.stats
	s.mu.Unlock()
	s.broker.publish(sm.id, "step", stepEvent{ID: sm.id, Stats: snap})
}

// onResume refreshes the stats snapshot from a just-restored checkpoint so
// the first poll after a resume reports the restored epoch, not the
// pre-suspend one.
func (s *Server) onResume(sm *sim, tw *twohot.Simulation) {
	s.mu.Lock()
	sm.stats.Step = tw.StepCount
	sm.stats.Z = tw.Redshift()
	sm.stats.A = tw.A
	sm.stats.Particles = tw.NumParticles()
	s.mu.Unlock()
}

// onAnalysis fans one scheduled in-situ catalog out to the event stream.
func (s *Server) onAnalysis(sm *sim, info twohot.AnalysisInfo) {
	s.broker.publish(sm.id, "analysis", analysisEvent{
		ID:    sm.id,
		Label: info.Trigger.Label(),
		Path:  info.Path,
		Z:     info.Catalog.Z,
		Halos: info.Catalog.NumHalos,
	})
}

// publishStateLocked fans the simulation's current Info out as a "state"
// event; callers hold Server.mu.
func (s *Server) publishStateLocked(sm *sim) {
	s.broker.publish(sm.id, "state", sm.infoLocked())
}
