package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"twohot"
	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/step"
	"twohot/internal/traverse"
	"twohot/internal/vec"
)

// simRepeat is the raw record of one repeat of a simulation workload: one
// set-up (New + GenerateICs + one cold Accelerations, which builds the lazy
// walker, Ewald lattice and mesh plan and doubles as the warm-up solve) and
// one timed Simulation.Run on the then-warm solver.
type simRepeat struct {
	Workers int       `json:"workers"`
	Traced  bool      `json:"traced"`
	SetupS  float64   `json:"setup_s"`
	ICS     float64   `json:"ic_generate_s"`
	RunS    float64   `json:"run_s"`
	StepS   []float64 `json:"step_s"`
	// CRC is the CRC-32 of the final positions and momenta in particle-ID
	// order; the repo's bit-determinism contract makes it identical across
	// repeats, worker counts and the traced pass.
	CRC string `json:"state_crc"`
	// MomentumWorst is the largest per-step change of total momentum as a
	// share of the momentum scale.
	MomentumWorst float64 `json:"momentum_worst"`
	StepsDone     int     `json:"steps_done"`

	icAcc []vec.V3 // IC accelerations by particle ID (first repeat only)
}

// simOpts selects what one repeat does beyond the plain untraced run.
type simOpts struct {
	rec       *recorder // non-nil: traced repeat
	maxSteps  int       // >0: stop at this step boundary (scaling repeat)
	keepICAcc bool
}

// stateCRC checksums positions and momenta in particle-ID order.  IDs are the
// lattice indices 0..N-1 the IC generator assigns.
func stateCRC(p *particle.Set) (string, error) {
	n := p.Len()
	buf := make([]byte, n*48)
	seen := make([]bool, n)
	for i, id := range p.ID {
		if id < 0 || int(id) >= n || seen[id] {
			return "", fmt.Errorf("particle IDs are not a permutation of 0..%d (id %d)", n-1, id)
		}
		seen[id] = true
		off := int(id) * 48
		for k := 0; k < 3; k++ {
			binary.LittleEndian.PutUint64(buf[off+8*k:], math.Float64bits(p.Pos[i][k]))
			binary.LittleEndian.PutUint64(buf[off+24+8*k:], math.Float64bits(p.Mom[i][k]))
		}
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(buf)), nil
}

// totalMomentum returns the mass-weighted momentum sum and the sum of the
// magnitudes it is judged against (as simulation_invariants_test.go does).
func totalMomentum(p *particle.Set) (vec.V3, float64) {
	var tot vec.V3
	scale := 0.0
	for i := range p.Mom {
		tot = tot.Add(p.Mom[i].Scale(p.Mass[i]))
		scale += p.Mass[i] * p.Mom[i].Norm()
	}
	return tot, scale
}

// errStopped is the cancel cause of a scaling repeat that reached its step
// budget.
var errStopped = errors.New("bench: step budget reached")

// setupSim is the set-up half of a repeat: New, GenerateICs and one cold
// Accelerations.
func setupSim(cfg twohot.Config, keepICAcc bool, opts ...twohot.Option) (simRepeat, *twohot.Simulation, error) {
	rep := simRepeat{Workers: cfg.Workers}
	t0 := time.Now()
	sim, err := twohot.New(cfg, opts...)
	if err != nil {
		return rep, nil, err
	}
	if err := sim.GenerateICs(); err != nil {
		return rep, nil, err
	}
	t1 := time.Now()
	acc, err := sim.Accelerations()
	if err != nil {
		return rep, nil, err
	}
	rep.ICS = t1.Sub(t0).Seconds()
	rep.SetupS = time.Since(t0).Seconds()
	if keepICAcc {
		rep.icAcc = make([]vec.V3, len(acc))
		for i, id := range sim.P.ID { // a distributed solve regroups the set
			rep.icAcc[id] = acc[i]
		}
	}
	return rep, sim, nil
}

// runSim performs one repeat of a simulation workload.
func runSim(cfg twohot.Config, o simOpts) (simRepeat, *twohot.Simulation, error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	var rep simRepeat
	var sim *twohot.Simulation
	var steps []float64
	var last time.Time
	var pPrev vec.V3
	worstMom, stepsDone := 0.0, 0
	obs := twohot.ObserverFuncs{Step: func(info twohot.StepInfo) {
		now := time.Now()
		steps = append(steps, now.Sub(last).Seconds())
		last = now
		stepsDone = info.Step
		p, scale := totalMomentum(sim.P)
		if rel := p.Sub(pPrev).Norm() / scale; rel > worstMom {
			worstMom = rel
		}
		pPrev = p
		if o.rec != nil {
			o.rec.onStep()
		}
		if o.maxSteps > 0 && info.Step >= o.maxSteps {
			cancel(errStopped)
		}
	}}

	opts := []twohot.Option{twohot.WithObserver(obs)}
	if o.rec != nil {
		// A throwaway Simulation is the factory for the engine pieces the
		// configuration describes; the traced one gets them wrapped.
		plain, err := twohot.New(cfg)
		if err != nil {
			return rep, nil, err
		}
		o.rec.par = plain.Par
		opts = append(opts,
			twohot.WithSolver(recordingSolver{inner: plain.Solver(), rec: o.rec}),
			twohot.WithStepper(&recordingStepper{inner: plain.Stepper(), rec: o.rec}),
			twohot.WithAnalysisObserver(twohot.AnalysisFunc(func(twohot.AnalysisInfo) { o.rec.onAnalysis(time.Now()) })))
	}
	rep, sim, err := setupSim(cfg, o.keepICAcc, opts...)
	if err != nil {
		return rep, nil, err
	}
	rep.Traced = o.rec != nil
	pPrev, _ = totalMomentum(sim.P)

	runStart := time.Now()
	last = runStart
	if o.rec != nil {
		o.rec.beginRun(cfg, runStart)
	}
	err = sim.RunContext(ctx)
	runEnd := time.Now()
	if o.rec != nil {
		o.rec.endRun(runEnd)
	}
	rep.RunS = runEnd.Sub(runStart).Seconds()
	rep.StepS, rep.MomentumWorst, rep.StepsDone = steps, worstMom, stepsDone
	if err != nil && !(o.maxSteps > 0 && errors.Is(context.Cause(ctx), errStopped)) {
		return rep, sim, err
	}
	rep.CRC, err = stateCRC(sim.P)
	return rep, sim, err
}

// recorder collects what the traced repeat observes at the seams: spans around
// every step, solve, synchronize, analysis pass and checkpoint, the solver's
// own counters and stage timings, energy samples for the Layzer–Irvine check,
// and the particle states the layer probes replay afterwards.
type recorder struct {
	tr  *tracer
	cfg twohot.Config
	par cosmo.Params
	// clk is the engine clock of the Advance/Synchronize call in flight
	// (nil outside one): at solve time it still holds the position epoch
	// and the pre-kick momentum epoch.
	clk *step.Clock

	runID     int
	steps     int
	tailStart time.Time // end of the last recorded event after a step

	solves        int
	solvesInStep  int
	solvesPerStep []float64
	walkS         float64
	counters      traverse.Counters
	inherited     int64
	frontier      int64
	pruned        int64
	boundsReused  int64
	builds        int
	fastPaths     int
	activeFracSum float64
	analysisS     []float64
	rungs         [][]int
	heapPeak      uint64

	// Particle states for the build/sort probes: the positions of the last
	// two solves, and the last partially-moved solve of a block-stepped run
	// with the positions the solve before it saw.
	prevPos, lastPos   []vec.V3
	dirtyPrev, dirtyAt []vec.V3
	dirtyMoved         []bool

	li []energySample
}

// energySample is the peculiar kinetic and potential energy of one
// synchronized state.
type energySample struct{ lnA, kinetic, potential float64 }

func (r *recorder) beginRun(cfg twohot.Config, at time.Time) {
	r.cfg = cfg
	r.runID = r.tr.begin("run", at)
	r.tailStart = at
}

func (r *recorder) endRun(at time.Time) {
	r.tr.end(r.runID, at)
}

func (r *recorder) onStep() {
	r.solvesPerStep = append(r.solvesPerStep, float64(r.solvesInStep))
	r.solvesInStep = 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > r.heapPeak {
		r.heapPeak = ms.HeapInuse
	}
}

func (r *recorder) onAnalysis(at time.Time) {
	r.tr.add(r.runID, "analysis", r.tailStart, at)
	r.analysisS = append(r.analysisS, at.Sub(r.tailStart).Seconds())
	r.tailStart = at
}

// closeTail accounts for the interval between the last recorded event and the
// next engine call.  The only work Run does there is a due checkpoint write.
func (r *recorder) closeTail(at time.Time) {
	k := r.cfg.CheckpointEvery
	if k > 0 && r.steps > 0 && r.steps%k == 0 && r.steps < r.cfg.NSteps {
		r.tr.add(r.runID, "checkpoint", r.tailStart, at)
	}
}

// recordingStepper wraps the configured time-integration engine with step and
// synchronize spans.
type recordingStepper struct {
	inner twohot.Stepper
	rec   *recorder
}

func (s *recordingStepper) Advance(f step.Forcer, p *particle.Set, clk *step.Clock, dlnA float64) (*core.Result, error) {
	r := s.rec
	start := time.Now()
	r.closeTail(start)
	id := r.tr.begin(fmt.Sprintf("step[%d]", r.steps), start)
	r.clk = clk
	res, err := s.inner.Advance(f, p, clk, dlnA)
	r.clk = nil
	end := time.Now()
	r.tr.end(id, end)
	r.steps++
	r.tailStart = end
	if b, ok := s.inner.(*step.Block); ok {
		r.rungs = append(r.rungs, b.RungHistogram())
	}
	return res, err
}

func (s *recordingStepper) Synchronize(f step.Forcer, p *particle.Set, clk *step.Clock) (*core.Result, error) {
	r := s.rec
	id := r.tr.begin("synchronize", time.Now())
	r.clk = clk
	res, err := s.inner.Synchronize(f, p, clk)
	r.clk = nil
	end := time.Now()
	r.tr.end(id, end)
	r.tailStart = end
	return res, err
}

func (s *recordingStepper) CheckpointReady(aMom float64) error { return s.inner.CheckpointReady(aMom) }
func (s *recordingStepper) Reset()                             { s.inner.Reset() }

// recordingSolver wraps the configured force solver with a solve span whose
// children are synthesized from the stage timings every solve already returns.
type recordingSolver struct {
	inner twohot.ForceSolver
	rec   *recorder
}

func (s recordingSolver) Name() string                      { return s.inner.Name() }
func (s recordingSolver) Capabilities() twohot.Capabilities { return s.inner.Capabilities() }
func (s recordingSolver) Reset()                            { s.inner.Reset() }

func (s recordingSolver) Accelerations(p *particle.Set) (*core.Result, error) {
	return s.ActiveForces(p, nil, nil)
}

func (s recordingSolver) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	r := s.rec
	if r.runID == 0 { // the set-up's cold solve runs before the trace opens
		return s.inner.ActiveForces(p, active, moved)
	}
	r.capture(p, moved)
	start := time.Now()
	res, err := s.inner.ActiveForces(p, active, moved)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r.onSolve(start, end, p, active, res)
	return res, nil
}

// capture keeps the positions the probes replay.  It runs outside the solve
// span, so its copies count as step self time of the traced pass.
func (r *recorder) capture(p *particle.Set, moved []bool) {
	r.prevPos, r.lastPos = r.lastPos, append(r.prevPos[:0], p.Pos...)
	if moved == nil || r.prevPos == nil {
		return
	}
	n := 0
	for _, m := range moved {
		if m {
			n++
		}
	}
	if n > 0 && n < len(moved) {
		r.dirtyPrev = append(r.dirtyPrev[:0], r.prevPos...)
		r.dirtyAt = append(r.dirtyAt[:0], p.Pos...)
		r.dirtyMoved = append(r.dirtyMoved[:0], moved...)
	}
}

func (r *recorder) onSolve(start, end time.Time, p *particle.Set, active []bool, res *core.Result) {
	tr := r.tr
	id := tr.add(tr.current(), fmt.Sprintf("solve[%d]", r.solves), start, end)
	r.solves++
	r.solvesInStep++

	// Lay the stages out back to back from the solve's start.  A distributed
	// solve reports each stage's maximum over ranks, which can add up to
	// more than the wall time; the children are clipped to the solve.
	tm := res.Timings
	cursor := start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"domain.decompose", tm.DomainDecomposition},
		{"tree.build", tm.TreeBuild},
		{"traverse.walk", tm.TreeTraversal},
		{"comm.exchange", tm.Communication},
		{"comm.imbalance", tm.LoadImbalance},
	} {
		if st.d <= 0 || !cursor.Before(end) {
			continue
		}
		stop := cursor.Add(st.d)
		if stop.After(end) {
			stop = end
		}
		tr.add(id, st.name, cursor, stop)
		cursor = stop
	}
	tr.count(id, "p2p_pairs", float64(res.Counters.P2P))
	tr.count(id, "cell_interactions", float64(res.Counters.CellInteractions()))

	r.walkS += tm.TreeTraversal.Seconds()
	r.counters.Add(res.Counters)
	r.inherited += res.Traversal.InheritedItems
	r.frontier += res.Traversal.FrontierWalks
	r.pruned += res.Traversal.PrunedInactive
	r.boundsReused += res.Traversal.BoundsReusedCells
	if res.Build.Reused {
		r.builds++
		if res.Build.FastPath {
			r.fastPaths++
		}
	}
	frac := 1.0
	if active != nil {
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		frac = float64(n) / float64(len(active))
	}
	r.activeFracSum += frac

	// A full solve inside an engine call sees positions at clk.A, momenta at
	// clk.AMom and fresh kernel sums: kicking a copy of the momenta up to
	// the position epoch — what Synchronize would do — gives the energies
	// of the synchronized state without another solve.
	if active == nil && res.Pot != nil && r.clk != nil {
		a := r.clk.A
		kick := 0.0
		if r.clk.AMom != a {
			kick = r.par.KickFactor(r.clk.AMom, a)
		}
		var ke, pe float64
		for i := range p.Mom {
			v := p.Mom[i].Add(res.Acc[i].Scale(kick)).Norm() / a
			ke += 0.5 * p.Mass[i] * v * v
			pe -= 0.5 * p.Mass[i] * res.Pot[i] / a
		}
		r.li = append(r.li, energySample{math.Log(a), ke, pe})
	}
}

// layzerIrvine returns the worst residual of the cosmic energy equation
// E(a) - E(a0) + ∫(2T+U) dln a = 0 over the recorded samples (trapezoid rule
// on the step grid), normalized by the energy exchanged — the closure
// simulation_invariants_test.go pins.
func layzerIrvine(s []energySample) float64 {
	if len(s) < 2 {
		return 0
	}
	e0 := s[0].kinetic + s[0].potential
	integral, exchanged, worst := 0.0, 0.0, 0.0
	for i := 1; i < len(s); i++ {
		w0 := 2*s[i-1].kinetic + s[i-1].potential
		w1 := 2*s[i].kinetic + s[i].potential
		term := 0.5 * (w0 + w1) * (s[i].lnA - s[i-1].lnA)
		integral += term
		exchanged += math.Abs(term)
		res := math.Abs(s[i].kinetic+s[i].potential-e0+integral) / math.Max(exchanged, math.Abs(e0))
		if res > worst {
			worst = res
		}
	}
	return worst
}
