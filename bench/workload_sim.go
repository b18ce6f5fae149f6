package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twohot"
	"twohot/internal/core"
	"twohot/internal/vec"
)

// bench carries the settings of one invocation.
type bench struct {
	seed    int64
	workers int     // GOMAXPROCS and Config.Workers: min(nproc, 4)
	seconds float64 // measuring window of the untraced pass, per workload
	smoke   bool
	out     string
}

// check is one line of the correctness gate.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// sampled is an end-to-end metric as results.json keeps it: the reported
// value (the median over repeats) and the per-repeat values behind it, so the
// spread is auditable and -compare can tell a difference from noise.
type sampled struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// workloadResult is everything one workload contributes to results.json.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Config    twohot.Config      `json:"config"`
	Particles int                `json:"particles"`
	TimedS    float64            `json:"timed_section_s"`
	EndToEnd  map[string]sampled `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	StateCRC  []string           `json:"state_crc"`
	Repeats   []simRepeat        `json:"repeats,omitempty"`
	Traced    *simRepeat         `json:"traced_repeat,omitempty"`
	Scaling   *simRepeat         `json:"single_worker_repeat,omitempty"`
	Rungs     [][]int            `json:"rung_histograms,omitempty"`
	Rounds    []serveRound       `json:"rounds,omitempty"`

	trace *tracer
}

func (r *workloadResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Failed++
	}
}

// correct reports whether every check passed and no operation failed.
func (r *workloadResult) correct() bool { return r.Failed == 0 }

// setEndToEnd records the end-to-end metrics from their per-repeat samples, in
// the order of the endToEnd table.
func (r *workloadResult) setEndToEnd(samples ...[]float64) {
	r.EndToEnd = map[string]sampled{}
	for i, d := range endToEnd {
		q1, q3 := quartiles(samples[i])
		r.EndToEnd[d.name] = sampled{Value: median(samples[i]), Unit: d.unit, Q1: q1, Q3: q3, Samples: samples[i]}
	}
}

// setupSamples is how often a run sets up.  With seven samples neither the
// median nor the quartiles can land on the process's cold first set-up, and
// the count no longer depends on how many repeats fit the window.
const setupSamples = 7

// forceSinks is how many sinks the force-error check solves: a seeded run of
// consecutive particle IDs, which the IC lattice makes a compact slab — few
// sink groups, so the tight reference stays cheap.
const forceSinks = 512

// forceError compares the workload solver's IC accelerations (by particle ID)
// with the tight tree reference on the seeded sink subset and returns the rms
// relative error (core.CompareAccelerations' convention).
func forceError(cfg twohot.Config, icAcc []vec.V3, workers int) (float64, error) {
	rc := referenceConfig(cfg, workers)
	sim, err := twohot.New(rc)
	if err != nil {
		return 0, err
	}
	if err := sim.GenerateICs(); err != nil {
		return 0, err
	}
	n := sim.P.Len()
	sinks := forceSinks
	if sinks > n {
		sinks = n
	}
	first := rand.New(rand.NewSource(cfg.Seed)).Intn(n)
	active := make([]bool, n)
	for i, id := range sim.P.ID {
		if (int(id)-first+n)%n < sinks {
			active[i] = true
		}
	}
	res, err := sim.Solver().ActiveForces(sim.P, active, nil)
	if err != nil {
		return 0, err
	}
	var test, ref []vec.V3
	for i, id := range sim.P.ID {
		if active[i] {
			test = append(test, icAcc[id])
			ref = append(ref, res.Acc[i])
		}
	}
	return core.CompareAccelerations(test, ref).RMS, nil
}

// workDir is the directory a workload's own outputs (checkpoints, catalogs,
// server artifacts) go to; it is removed when the workload ends.
func (b *bench) workDir(w *workload) string { return filepath.Join(b.out, "work", w.name) }

// runSimWorkload runs the untraced pass (end-to-end metrics), the traced pass
// (per-layer metrics), or both, of one simulation workload.
func (b *bench) runSimWorkload(w *workload, untraced, traced bool) (*workloadResult, error) {
	cfg := w.config(b.seed, b.workers, b.smoke)
	cfg.OutputDir = b.workDir(w)
	defer os.RemoveAll(cfg.OutputDir)
	n := particles(cfg)
	res := &workloadResult{Name: w.name, Why: w.why, Config: cfg, Particles: n}

	var icAcc []vec.V3
	repeat := func(o simOpts) (simRepeat, *twohot.Simulation, error) {
		// Collect the previous repeat's garbage outside the timed region.
		runtime.GC()
		o.keepICAcc = icAcc == nil
		rep, sim, err := runSim(cfg, o)
		if rep.icAcc != nil {
			icAcc = rep.icAcc
		}
		res.Attempted += cfg.NSteps
		if err != nil {
			res.Failed += cfg.NSteps - rep.StepsDone
			return rep, sim, fmt.Errorf("%s: %w", w.name, err)
		}
		return rep, sim, nil
	}

	// Untraced repeats, back to back, for as long as the window lasts.
	started := time.Now()
	minRepeats := 2
	if !untraced {
		minRepeats = 1 // the traced pass needs one as its overhead reference
	}
	longest := 0.0
	for len(res.Repeats) < 16 {
		elapsed := time.Since(started).Seconds()
		if len(res.Repeats) >= minRepeats && (!untraced || elapsed+longest > b.seconds) {
			break
		}
		t0 := time.Now()
		rep, _, err := repeat(simOpts{})
		if err != nil {
			return res, err
		}
		if d := time.Since(t0).Seconds(); d > longest {
			longest = d
		}
		res.Repeats = append(res.Repeats, rep)
	}
	// Set-up is cheap next to a run, so it is sampled a few more times on
	// its own, to setupSamples in all.
	var setup, ic []float64
	for untraced && len(res.Repeats)+len(setup) < setupSamples {
		runtime.GC()
		rep, _, err := setupSim(cfg, false)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		setup = append(setup, rep.SetupS)
		ic = append(ic, rep.ICS)
	}
	res.TimedS = time.Since(started).Seconds()

	var thr, p50, p90 []float64
	worstMom := 0.0
	for _, rep := range res.Repeats {
		thr = append(thr, float64(n*cfg.NSteps)/rep.RunS)
		p50 = append(p50, median(rep.StepS))
		p90 = append(p90, percentile(rep.StepS, 0.9))
		setup = append(setup, rep.SetupS)
		ic = append(ic, rep.ICS)
		res.StateCRC = append(res.StateCRC, rep.CRC)
		res.check("steps", rep.StepsDone == cfg.NSteps, "repeat reached step %d of %d", rep.StepsDone, cfg.NSteps)
		if rep.MomentumWorst > worstMom {
			worstMom = rep.MomentumWorst
		}
	}
	if untraced {
		res.setEndToEnd(thr, p50, p90, setup)
	}

	if traced {
		if err := b.tracedPass(w, cfg, res, repeat, median(thr), median(ic)); err != nil {
			return res, err
		}
		if res.Traced.MomentumWorst > worstMom {
			worstMom = res.Traced.MomentumWorst
		}
	}

	same := true
	for _, crc := range res.StateCRC {
		same = same && crc == res.StateCRC[0]
	}
	res.check("state_crc", same, "final state CRC over %d repeats: %v", len(res.StateCRC), res.StateCRC)
	res.check("momentum", b.smoke || worstMom <= w.momTol, "worst per-step momentum change %.3e (tolerance %.1e)", worstMom, w.momTol)

	ferr, err := forceError(cfg, icAcc, b.workers)
	if err != nil {
		return res, err
	}
	res.check("force_err_rms", b.smoke || ferr <= w.forceErrCeil, "rms force error %.4e vs tight tree reference (ceiling %.1e)", ferr, w.forceErrCeil)
	if traced {
		res.PerLayer["force.err_rms"] = ferr
	}
	return res, nil
}

// tracedPass runs one traced repeat, a single-worker repeat of the leading
// steps, and the layer probes, and fills res.PerLayer.
func (b *bench) tracedPass(w *workload, cfg twohot.Config, res *workloadResult,
	repeat func(simOpts) (simRepeat, *twohot.Simulation, error), untracedThr, icS float64) error {
	vals := map[string]float64{}
	res.PerLayer = vals
	n := particles(cfg)

	rec := &recorder{tr: newTracer(w.name)}
	rep, sim, err := repeat(simOpts{rec: rec})
	if err != nil {
		return err
	}
	res.Traced, res.trace, res.Rungs = &rep, rec.tr, rec.rungs
	res.StateCRC = append(res.StateCRC, rep.CRC)
	res.check("steps", rep.StepsDone == cfg.NSteps, "traced repeat reached step %d of %d", rep.StepsDone, cfg.NSteps)

	treeErr := checkSpanTree(rec.tr.spans)
	res.check("span_tree", treeErr == nil, "%d spans: %v", len(rec.tr.spans), treeErr)
	accounted := rec.tr.childTime(rec.runID) / rec.tr.duration(rec.runID)
	res.check("trace_accounted", accounted >= 0.95, "steps, synchronize, analysis and checkpoint spans cover %.1f%% of the run span", 100*accounted)
	vals["trace.accounted_frac"] = accounted
	vals["trace.overhead_frac"] = 1 - float64(n*cfg.NSteps)/rep.RunS/untracedThr
	if w.liTol > 0 {
		li := layzerIrvine(rec.li)
		res.check("layzer_irvine", b.smoke || (len(rec.li) == cfg.NSteps+1 && li <= w.liTol),
			"Layzer-Irvine residual %.4f over %d synchronized states (tolerance %.3f)", li, len(rec.li), w.liTol)
	}

	vals["ic.generate_s"] = icS
	vals["traverse.walk_s"] = rec.walkS
	vals["traverse.p2p_pairs"] = float64(rec.counters.P2P)
	vals["traverse.cell_interactions"] = float64(rec.counters.CellInteractions())
	vals["traverse.flops"] = float64(rec.counters.Flops())
	if rec.walkS > 0 {
		vals["traverse.gflops_per_s"] = float64(rec.counters.Flops()) / rec.walkS / 1e9
	}
	if tot := rec.inherited + rec.frontier; tot > 0 {
		vals["traverse.inherit_ratio"] = float64(rec.inherited) / float64(tot)
	}
	vals["traverse.pruned_inactive"] = float64(rec.pruned)
	vals["traverse.bounds_reused_cells"] = float64(rec.boundsReused)
	if rec.builds > 0 {
		vals["parsort.fastpath_frac"] = float64(rec.fastPaths) / float64(rec.builds)
	}
	vals["step.substeps_per_block"] = median(rec.solvesPerStep)
	vals["step.active_frac_mean"] = rec.activeFracSum / float64(rec.solves)
	occupied := 1
	for _, h := range rec.rungs {
		for r, c := range h {
			if c > 0 && r+1 > occupied {
				occupied = r + 1
			}
		}
	}
	vals["step.rungs_occupied"] = float64(occupied)
	vals["analysis.pass_s"] = median(rec.analysisS)
	vals["mem.heap_inuse_peak_mb"] = float64(rec.heapPeak) / 1e6

	// The plain single-threaded baseline: the same leading steps on one
	// worker and one processor, against the N-worker repeats' medians.
	k := w.scalingSteps
	if k > cfg.NSteps {
		k = cfg.NSteps
	}
	one := cfg
	one.Workers = 1
	prev := runtime.GOMAXPROCS(1)
	runtime.GC()
	srep, _, err := runSim(one, simOpts{maxSteps: k})
	runtime.GOMAXPROCS(prev)
	res.Attempted += k
	if err != nil {
		res.Failed += k - srep.StepsDone
		return fmt.Errorf("%s single-worker repeat: %w", w.name, err)
	}
	res.Scaling = &srep
	many := 0.0
	for i := 0; i < k; i++ {
		var at []float64
		for _, r := range res.Repeats {
			at = append(at, r.StepS[i])
		}
		many += median(at)
	}
	vals["scaling.w1_over_wN"] = sum(srep.StepS[:k]) / many

	mass := sim.P.Mass[0]
	if err := probeTreeBuild(cfg, rec, mass, vals); err != nil {
		return err
	}
	probeKernels(cfg, vals)
	if err := probeKickDrift(sim, vals); err != nil {
		return err
	}
	if cfg.Solver == twohot.SolverTreePM {
		probeMesh(cfg, sim.P.Pos, mass, vals)
	}
	if cfg.Ranks > 1 {
		if err := probeDistributed(cfg, sim.P, vals); err != nil {
			return err
		}
	}
	if cfg.CheckpointEvery > 0 {
		if err := probeSnapshotIO(sim, cfg.OutputDir, vals); err != nil {
			return err
		}
	}
	return nil
}
