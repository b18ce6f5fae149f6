// Package cluster runs a distributed simulation as N cooperating rank
// processes over the TCP transport, supervised for fault tolerance: ranks
// advance in lockstep, rank 0 writes atomic checkpoints on a fixed cadence,
// and when any rank dies the supervisor kills the survivors and restarts the
// whole world from the last good checkpoint.
//
// There is one rank body (RankRun) and it owns no integrator arithmetic: it
// drives the engine step.NewEngine picks for Spec.BlockSteps — the choice a
// single-process Simulation makes through the same call — against the rank's
// core.RankSolver, the same force body core.DistributedStep runs on
// in-process ranks.  What the body adds is the distributed bookkeeping around
// each engine call: the rechunk to the canonical layout, the collective
// checkpoint gate, and the gather to rank 0.
// Checkpoints carry the same step-grid metadata and per-particle work weights
// as Simulation checkpoints (sdf.Snapshot), so the two kinds restore
// interchangeably.
//
// The body is transport-agnostic: driving it on the in-process channel world
// and on TCP loopback runs the identical code, which is what makes an
// N-process run bit-identical to the in-process one.  A restart is
// bit-identical to an uninterrupted run because every step begins from the
// canonical layout (rechunk below) and checkpoints capture exactly that
// layout — positions, momenta and the work weights that steer the next
// decomposition — in full float64 precision.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"

	"twohot/internal/comm"
	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/sdf"
	"twohot/internal/step"
)

// Spec fully describes a cluster run.  It is plain JSON so the supervisor can
// hand it to worker processes through a file; every field that influences the
// physics round-trips exactly (Go's JSON encoding of float64 is lossless).
type Spec struct {
	// The world, in the transport's own terms: N is the number of ranks,
	// Addrs their TCP listen addresses (filled by the supervisor per attempt,
	// one per rank), the timeouts default when zero (tests shrink them to
	// fail fast) and Rank is completed by each worker.  A set Chaos enables
	// fault injection on every rank's transport; a positive Chaos.KillAfter
	// applies only to rank ChaosKillRank, so a test can kill one specific
	// rank, and the supervisor disarms the kill on restart.
	comm.TCPOptions
	ChaosKillRank int `json:"chaos_kill_rank,omitempty"`

	// Physics and stepping.
	Cosmology string          `json:"cosmology"`
	Tree      core.TreeConfig `json:"tree"`
	NSteps    int             `json:"n_steps"`
	DlnA      float64         `json:"dln_a"`

	// Block stepping.  BlockSteps > 0 replaces each global step with a
	// hierarchical block step of that many rung levels (see step.Block): the
	// ranks agree on each block's substep schedule by summing their rung
	// histograms, the domain decomposition is frozen within a block, and
	// only the active particles are solved and kicked per substep.
	// RungDisplacementFrac is the per-particle rung criterion (0 = 0.1),
	// measured against the mean interparticle separation of the input load.
	BlockSteps           int     `json:"block_steps,omitempty"`
	RungDisplacementFrac float64 `json:"rung_displacement_frac,omitempty"`

	// Files.  SnapshotIn is the initial state (an SDF snapshot; its step-grid
	// metadata, when present, is how a checkpoint resumes mid-grid — see
	// sdf.Snapshot.StepGrid).  ResultPath receives the final gathered
	// snapshot.  CheckpointPath, with CheckpointEvery > 0, receives an atomic
	// checkpoint on the cadence of step.CheckpointDue (every
	// CheckpointEvery-th step but the last).  All paths must be on a
	// filesystem every rank process can reach.
	SnapshotIn      string `json:"snapshot_in"`
	ResultPath      string `json:"result_path"`
	CheckpointPath  string `json:"checkpoint_path,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
}

// LoadSpec reads a spec written by Spec.Save.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("cluster: spec %s: %w", path, err)
	}
	return s, nil
}

// Save writes the spec as JSON.
func (s Spec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Worker joins the TCP world as one rank and runs the stepping loop to
// completion.  It is the body of a worker process (see WorkerMain).
func Worker(spec Spec, rank int) error {
	opt := spec.TCPOptions
	opt.Rank = rank
	if opt.Chaos != nil && rank != spec.ChaosKillRank {
		c := *opt.Chaos
		c.KillAfter = 0
		opt.Chaos = &c
	}
	r, err := comm.JoinTCP(opt)
	if err != nil {
		return fmt.Errorf("cluster: rank %d join: %w", rank, err)
	}
	runErr := RankRun(r, spec)
	if cerr := r.Close(); runErr == nil {
		runErr = cerr
	}
	return runErr
}

// tagGather is the application tag of the gather-to-rank-0 used for
// checkpoints and the final result.  One tag suffices: the collectives inside
// every step keep the world in lockstep, so a rank can never have two gather
// sends in flight to rank 0 at once.
const tagGather = 8000

// RunHooks lets callers observe a rank run; every field is optional.
type RunHooks struct {
	// OnBlock fires on each rank after every completed block step of a
	// block-stepped run (Spec.BlockSteps > 0) with the completed-step count
	// and the rung histogram of that block: the agreed global one when
	// BlockSteps > 1, the rank's own count on a one-level schedule, which
	// has nothing to agree.
	OnBlock func(stepsDone int, hist []int)
}

// RankRun is the per-rank body of a cluster run, independent of the
// transport joining r to its world.  Each rank loads its contiguous chunk of
// the input snapshot and then drives the same stepping engine a
// single-process Simulation drives — the step.Block of Spec.BlockSteps rung
// levels, one level for global stepping — against its share of the
// distributed force solve (core.RankSolver): Advance, rechunk back to the
// canonical layout, and on the checkpoint cadence a collective checkpoint
// gate followed by a gather to rank 0.  The run ends with the engine's
// Synchronize and a final gather, so the result snapshot is synchronized.
//
// The step grid comes from the input snapshot (sdf.Snapshot.StepGrid): a
// checkpoint resumes after its completed-step count and hands its anchor on
// to every checkpoint this run writes; anything else starts a fresh grid
// anchored at its own epoch.
//
// The box must be periodic: the engines wrap positions into it, and the
// frozen-domain key space of a block must not change between substeps.
func RankRun(r *comm.Rank, spec Spec) error {
	return RankRunHooked(r, spec, RunHooks{})
}

// RankRunHooked is RankRun with observation hooks (used by the equivalence
// tests to watch per-block rung histograms).
func RankRunHooked(r *comm.Rank, spec Spec, hooks RunHooks) error {
	par, err := cosmo.ByName(spec.Cosmology)
	if err != nil {
		return err
	}
	if !spec.Tree.Periodic {
		return fmt.Errorf("cluster: a cluster run requires a periodic box")
	}
	snap, err := sdf.Read(spec.SnapshotIn)
	if err != nil {
		return fmt.Errorf("cluster: rank %d: %w", r.ID, err)
	}
	startStep, aInit := snap.StepGrid()
	my := snap.Particles.Chunk(r.ID, r.N())
	clk := step.Clock{A: snap.ScaleFac, AMom: snap.MomentumScaleFac}

	fz := core.NewRankSolver(r, core.DistributedConfig{
		Tree:           spec.Tree,
		BranchExchange: "ring", // the 2HOT hierarchical pairwise aggregation
		UseWorkWeights: true,
	})

	eng := step.NewEngine(par, spec.Tree.BoxSize, snap.Particles.Len(), spec.BlockSteps, spec.RungDisplacementFrac)
	eng.AgreeRungs = func(local []int) ([]int, error) { return sumRungs(r, local) }

	for s := startStep; s < spec.NSteps; s++ {
		// Fresh splitters at every step; within a block step the solver
		// keeps them across the substeps.
		fz.Thaw()
		if _, err := eng.Advance(fz, my, &clk, spec.DlnA); err != nil {
			return fmt.Errorf("cluster: rank %d step %d: %w", r.ID, s, err)
		}
		if err := rechunk(r, my); err != nil {
			return fmt.Errorf("cluster: rank %d step %d rechunk: %w", r.ID, s, err)
		}
		if spec.BlockSteps > 0 && hooks.OnBlock != nil {
			hooks.OnBlock(s+1, eng.RungHistogram())
		}
		if spec.CheckpointPath != "" && step.CheckpointDue(s+1, spec.CheckpointEvery, spec.NSteps) {
			if err := syncIfUnrepresentable(r, my, &clk, eng, fz); err != nil {
				return fmt.Errorf("cluster: rank %d checkpoint sync after step %d: %w", r.ID, s, err)
			}
			if err := writeGathered(r, my, spec.CheckpointPath, clk, spec, s+1, aInit); err != nil {
				return fmt.Errorf("cluster: rank %d checkpoint after step %d: %w", r.ID, s, err)
			}
		}
	}

	// Close the leapfrog with fresh splitters and gather the synchronized
	// result (a fresh run starting from it re-primes cleanly).
	fz.Thaw()
	res, err := eng.Synchronize(fz, my, &clk)
	if err != nil {
		return fmt.Errorf("cluster: rank %d synchronize: %w", r.ID, err)
	}
	if res != nil {
		if err := rechunk(r, my); err != nil {
			return fmt.Errorf("cluster: rank %d synchronize rechunk: %w", r.ID, err)
		}
	}
	return writeGathered(r, my, spec.ResultPath, clk, spec, spec.NSteps, aInit)
}

// sumRungs is the rung agreement of a multi-level block-stepped world
// (step.Block's AgreeRungs): the per-rank histograms are summed so every
// rank derives the same substep schedule — and sees the same global rung
// occupancy.
func sumRungs(r *comm.Rank, local []int) ([]int, error) {
	enc := make([]uint64, len(local))
	for i, c := range local {
		enc[i] = uint64(c)
	}
	parts, err := r.AllgatherUint64(enc)
	if err != nil {
		return nil, fmt.Errorf("rung agreement: %w", err)
	}
	sum := make([]int, len(local))
	for i, v := range parts {
		sum[i%len(local)] += int(v)
	}
	return sum, nil
}

// syncIfUnrepresentable closes the leapfrog before a due checkpoint when the
// world holds per-particle momentum epochs a single-epoch snapshot cannot
// represent (a multi-rung block; the engine's CheckpointReady says so).  The
// verdict is collective — an allreduce over the ranks' local answers — so
// every rank takes the same branch.  One-level and all-rung-0 states leave
// one uniform trailing epoch, which the snapshot's two scale factors
// represent exactly; they are written unchanged, which keeps an all-rung-0
// block run's checkpoints byte-identical to a global-timestep run's.
func syncIfUnrepresentable(r *comm.Rank, my *particle.Set, clk *step.Clock, eng *step.Block, fz *core.RankSolver) error {
	local := 0.0
	if eng.CheckpointReady(clk.AMom) != nil {
		local = 1
	}
	global, err := r.AllreduceFloat64(local, "max")
	if err != nil {
		return err
	}
	if global == 0 {
		return nil
	}
	fz.Thaw()
	if _, err := eng.Synchronize(fz, my, clk); err != nil {
		return err
	}
	return rechunk(r, my)
}

// rechunk restores the canonical layout in place after a force solve left
// each rank owning a key range: the global rank-order concatenation is
// re-split into the contiguous chunks particle.ChunkBounds hands out.  Every
// step therefore begins from the state a checkpoint captures, which is what
// makes a restart bit-identical to the uninterrupted run (and matches the
// per-call chunking of core.DistributedStep, pinning TCP runs to the
// in-process ones).
func rechunk(r *comm.Rank, my *particle.Set) error {
	n := r.N()
	counts, err := r.AllgatherUint64([]uint64{uint64(my.Len())})
	if err != nil {
		return err
	}
	total, myOff := 0, 0
	for rank, c := range counts {
		if rank == r.ID {
			myOff = total
		}
		total += int(c)
	}

	send := make([][]byte, n)
	for dst := 0; dst < n; dst++ {
		lo, hi := particle.ChunkBounds(total, dst, n)
		lo, hi = lo-myOff, hi-myOff
		if lo < 0 {
			lo = 0
		}
		if hi > my.Len() {
			hi = my.Len()
		}
		if hi <= lo {
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		send[dst] = my.EncodeRange(idx)
	}
	recv, err := r.AlltoallvBytes(send, comm.AlltoallDirect)
	if err != nil {
		return err
	}
	// Global offsets ascend with source rank and each source ships one
	// contiguous range, so concatenating in source order restores ascending
	// global order.
	lo, hi := particle.ChunkBounds(total, r.ID, n)
	out := particle.New(hi - lo)
	for src := 0; src < n; src++ {
		if len(recv[src]) == 0 {
			continue
		}
		if err := out.DecodeAppend(recv[src]); err != nil {
			return fmt.Errorf("rechunk from rank %d: %w", src, err)
		}
	}
	*my = *out
	return nil
}

// writeGathered collects every rank's particles on rank 0 (in rank order,
// which after a rechunk is the canonical global order) and writes them
// atomically to path with the clock state and the step-grid position.  Ranks
// other than 0 only send; the collectives of the next step keep them from
// racing ahead of the write in any way that matters — a crash meanwhile
// loses at most the newest checkpoint, never the previous one (sdf.Write
// renames only complete, checksummed files into place).
func writeGathered(r *comm.Rank, my *particle.Set, path string, clk step.Clock, spec Spec, stepsDone int, aInit float64) error {
	if r.ID != 0 {
		idx := make([]int, my.Len())
		for i := range idx {
			idx[i] = i
		}
		return r.Send(0, tagGather, my.EncodeRange(idx))
	}
	all := particle.New(my.Len() * r.N())
	for i := 0; i < my.Len(); i++ {
		all.AppendFrom(my, i)
	}
	for src := 1; src < r.N(); src++ {
		data, _, err := r.Recv(src, tagGather)
		if err != nil {
			return err
		}
		if err := all.DecodeAppend(data); err != nil {
			return fmt.Errorf("gather from rank %d: %w", src, err)
		}
	}
	snap := &sdf.Snapshot{
		Particles:        all,
		ScaleFac:         clk.A,
		MomentumScaleFac: clk.AMom,
		BoxSize:          spec.Tree.BoxSize,
		Cosmology:        spec.Cosmology,
	}
	snap.SetStepGrid(stepsDone, aInit)
	return sdf.Write(path, snap)
}
