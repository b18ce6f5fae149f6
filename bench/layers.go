package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"twohot"
	"twohot/internal/comm"
	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/fft"
	"twohot/internal/keys"
	"twohot/internal/multipole"
	"twohot/internal/parsort"
	"twohot/internal/particle"
	"twohot/internal/pm"
	"twohot/internal/sdf"
	"twohot/internal/softening"
	"twohot/internal/step"
	"twohot/internal/traverse"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// The probes below time calls from the benchmark into one layer's public API,
// on particle states captured from the traced repeat (or on fixed-seed inputs
// for the kernels).  Each reports the median of a few calls.

// timeMedian runs body n times, calling prep (untimed) before each, and
// returns the median wall time in seconds.
func timeMedian(n int, prep, body func()) float64 {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		body()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples)
}

// treeConfigOf mirrors the tree-solver configuration twohot.NewForceSolver
// derives from a Config (the derivation itself is unexported).
func treeConfigOf(c twohot.Config) core.TreeConfig {
	kernel, _ := softening.ParseKernel(c.Kernel)
	mac := traverse.MACAbsoluteError
	if c.MAC == "bh" {
		mac = traverse.MACBarnesHut
	}
	tc := core.TreeConfig{
		Order: c.Order, ErrTol: c.ErrTol, MAC: mac, Theta: c.Theta,
		Kernel: kernel, Eps: c.SofteningLength(), G: cosmo.G,
		Periodic: true, BoxSize: c.BoxSize,
		BackgroundSubtraction: c.BackgroundSubtraction, WS: c.WS, LatticeOrder: c.LatticeOrder,
		Workers: c.Workers, Incremental: c.Incremental,
	}
	if c.Solver == twohot.SolverTreePM {
		tc.BackgroundSubtraction, tc.LatticeOrder, tc.WS = false, 0, 1
	}
	return tc
}

// splitScale is the TreePM force-split scale of a configuration.
func splitScale(c twohot.Config) float64 { return c.Asmth * c.BoxSize / float64(c.PMGrid) }

// probeTreeBuild times tree.Build from scratch, seeded by the previous step's
// order, and (block-stepped runs) with the dirty-set subtree reuse, plus the
// two record sorts underneath.
func probeTreeBuild(c twohot.Config, rec *recorder, mass float64, vals map[string]float64) error {
	if rec.prevPos == nil || rec.lastPos == nil {
		return fmt.Errorf("traced run captured fewer than two solves")
	}
	ts := core.NewTreeSolver(treeConfigOf(c)) // for its defaulted leaf size and root box
	n := len(rec.lastPos)
	masses := make([]float64, n)
	for i := range masses {
		masses[i] = mass
	}
	opt := tree.Options{Order: ts.Cfg.Order, LeafSize: ts.Cfg.LeafSize, Workers: c.Workers}
	if ts.Cfg.BackgroundSubtraction {
		opt.RhoBar = mass * float64(n) / ts.RootBox(rec.lastPos).Volume()
	}
	// tree.Build reorders its inputs in place, so every call gets copies.
	pos, ms := make([]vec.V3, n), make([]float64, n)
	stage := func(src []vec.V3) func() {
		return func() { copy(pos, src); copy(ms, masses) }
	}
	build := func(src []vec.V3, o tree.Options) (*tree.Tree, error) {
		p, m := append([]vec.V3(nil), src...), append([]float64(nil), masses...)
		return tree.Build(p, m, ts.RootBox(src), o)
	}

	var last *tree.Tree
	var err error
	vals["tree.build_scratch_s"] = timeMedian(3, stage(rec.lastPos), func() {
		last, err = tree.Build(pos, ms, ts.RootBox(rec.lastPos), opt)
	})
	if err != nil {
		return err
	}
	vals["tree.cells"] = float64(last.NumCells())

	prev, err := build(rec.prevPos, opt)
	if err != nil {
		return err
	}
	inc := opt
	inc.Previous = prev
	vals["tree.build_incremental_s"] = timeMedian(3, stage(rec.lastPos), func() {
		_, err = tree.Build(pos, ms, ts.RootBox(rec.lastPos), inc)
	})
	if err != nil {
		return err
	}

	if rec.dirtyMoved != nil {
		before, err := build(rec.dirtyPrev, opt)
		if err != nil {
			return err
		}
		dirty := opt
		dirty.Previous, dirty.Dirty = before, rec.dirtyMoved
		var t *tree.Tree
		vals["tree.build_dirty_s"] = timeMedian(3, stage(rec.dirtyAt), func() {
			t, err = tree.Build(pos, ms, ts.RootBox(rec.dirtyAt), dirty)
		})
		if err != nil {
			return err
		}
		vals["tree.reused_cell_frac"] = float64(t.Stats.ReusedCells) / float64(t.NumCells())
	}

	// The sort stage alone: records in caller order (the from-scratch
	// input), and records re-keyed in the previous tree's order (the
	// near-sorted input the adaptive sort exists for).
	box := ts.RootBox(rec.lastPos)
	key := func(i int) uint64 { return uint64(keys.FromPosition(rec.lastPos[i], box, keys.Morton)) }
	fresh, seeded := make([]parsort.KV, n), make([]parsort.KV, n)
	for i := range fresh {
		fresh[i] = parsort.KV{Key: key(i), Idx: int32(i)}
		j := prev.SortIndex[i]
		seeded[i] = parsort.KV{Key: key(j), Idx: int32(j)}
	}
	recs := make([]parsort.KV, n)
	vals["parsort.sortkv_s"] = timeMedian(5, func() { copy(recs, fresh) }, func() { parsort.SortKV(recs, c.Workers) })
	vals["parsort.adaptive_s"] = timeMedian(5, func() { copy(recs, seeded) }, func() { parsort.SortKVAdaptive(recs, c.Workers) })
	return nil
}

// sink defeats dead-code elimination of the kernel probes.
var sink float64

// probeKernels times the two innermost kernels on fixed-seed inputs: the
// order-4 multipole block evaluation and the pair smoothing factors (plain
// and TreePM split).  The operation counts are the paper's accounting; the
// byte counts are computed from operand sizes, not measured.
func probeKernels(c twohot.Config, vals map[string]float64) {
	rng := rand.New(rand.NewSource(42))
	const order, block = 4, 64

	e := multipole.NewExpansion(order, vec.V3{0.5, 0.5, 0.5})
	for i := 0; i < 64; i++ {
		e.AddParticle(vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}, 1.0/64)
	}
	e.FinalizeNorms()
	xs, qs := make([]vec.V3, block), make([]uint8, block)
	for i := range xs {
		xs[i] = vec.V3{3 + rng.Float64(), 3 + rng.Float64(), 3 + rng.Float64()}
		qs[i] = order
	}
	scratch := make([]float64, multipole.ScratchSize(order))
	out := make([]multipole.Result, block)
	evals := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		e.EvaluateTruncatedBlock(xs, qs, scratch, out)
		evals += block
		sink += out[0].Phi
	}
	vals["multipole.eval_ns_per_cell"] = float64(time.Since(t0).Nanoseconds()) / float64(evals)
	var one traverse.Counters
	one.CellByOrder[order] = 1
	vals["multipole.flops_per_cell"] = float64(one.Flops())
	// Moments of the source cell, one sink position in, acceleration and
	// potential out.
	vals["multipole.bytes_per_cell_computed"] = float64(8*multipole.NumTerms(order) + 24 + 32)

	kernel, _ := softening.ParseKernel(c.Kernel)
	eps := c.SofteningLength()
	rs := make([]float64, 4096)
	for i := range rs {
		rs[i] = eps * (0.1 + 20*rng.Float64())
	}
	pairs := 0
	t0 = time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for _, r := range rs {
			ff, pf := softening.Factors(kernel, r, eps)
			sink += ff + pf
		}
		pairs += len(rs)
	}
	vals["softening.p2p_ns_per_pair"] = float64(time.Since(t0).Nanoseconds()) / float64(pairs)
	vals["softening.flops_per_pair"] = multipole.FlopsPerMonopole
	// Source position and mass streamed per pair; the sink stays in registers.
	vals["softening.bytes_per_pair_computed"] = 32

	if c.Solver == twohot.SolverTreePM {
		split := splitScale(c)
		for i := range rs {
			rs[i] = split * (0.05 + 4.45*rng.Float64())
		}
		pairs = 0
		t0 = time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			for _, r := range rs {
				ff, pf := softening.SplitFactors(r, split)
				sink += ff + pf
			}
			pairs += len(rs)
		}
		vals["softening.split_ns_per_pair"] = float64(time.Since(t0).Nanoseconds()) / float64(pairs)
	}
}

// probeMesh times the TreePM long-range solve on the captured positions and
// one forward+inverse transform of a 64^3 cube.
func probeMesh(c twohot.Config, pos []vec.V3, mass float64, vals map[string]float64) {
	solver := pm.NewSolver(pm.Options{
		Mesh: c.PMGrid, BoxSize: c.BoxSize, DeconvolveCIC: true,
		Asmth: c.Asmth, RCut: 4.5, Eps: c.SofteningLength(), Workers: c.Workers,
	})
	acc := make([]vec.V3, len(pos))
	solver.LongRange(pos, mass, acc) // plans the mesh
	vals["pm.longrange_s"] = timeMedian(3, nil, func() { solver.LongRange(pos, mass, acc) })

	rng := rand.New(rand.NewSource(42))
	g := fft.NewCube(64)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	vals["fft.cube64_roundtrip_s"] = timeMedian(5, nil, func() { g.Forward(); g.Inverse() })
}

// nullForcer returns zero forces, so an engine driven by it spends its time on
// kick, drift and scatter alone.
type nullForcer struct{ res core.Result }

func (f *nullForcer) Accelerations(p *particle.Set) (*core.Result, error) { return &f.res, nil }
func (f *nullForcer) ActiveForces(p *particle.Set, _, _ []bool) (*core.Result, error) {
	return &f.res, nil
}

// probeKickDrift times one global leapfrog step without a force solve.
func probeKickDrift(sim *twohot.Simulation, vals map[string]float64) error {
	p := sim.P.Clone()
	f := &nullForcer{res: core.Result{Acc: make([]vec.V3, p.Len())}}
	g := step.NewGlobal(sim.Par, sim.Cfg.BoxSize)
	var err error
	vals["step.kickdrift_s"] = timeMedian(5, nil, func() {
		clk := step.Clock{A: 0.5, AMom: 0.495}
		_, err = g.Advance(f, p, &clk, 0.01)
	})
	return err
}

// probeDistributed replays one distributed force step on the captured state
// and reports its decomposition time, balance and traffic, then compares the
// two transports on a fixed exchange.
func probeDistributed(c twohot.Config, set *particle.Set, vals map[string]float64) error {
	dc := core.DistributedConfig{
		Tree:           core.NewTreeSolver(treeConfigOf(c)).Cfg,
		NRanks:         c.Ranks,
		BranchExchange: "ring",
		UseWorkWeights: true,
	}
	var dd, imb, bytes, msgs, wait []float64
	for i := 0; i < 3; i++ {
		res, err := core.DistributedStep(set.Clone(), dc)
		if err != nil {
			return err
		}
		dd = append(dd, res.Timings.DomainDecomposition.Seconds())
		imb = append(imb, res.Imbalance)
		bytes = append(bytes, float64(res.Comm.PointToPointBytes))
		msgs = append(msgs, float64(res.Comm.PointToPointMsgs+res.Comm.CollectiveMsgs))
		wait = append(wait, (res.Timings.Communication + res.Timings.LoadImbalance).Seconds())
	}
	vals["domain.decompose_s"] = median(dd)
	vals["domain.imbalance"] = median(imb)
	vals["comm.bytes_per_step"] = median(bytes)
	vals["comm.msgs_per_step"] = median(msgs)
	vals["comm.wait_s"] = median(wait)

	const pair, calls = 64 << 10, 20
	for _, transport := range []string{"chan", "tcp"} {
		elapsed, err := commWorld(transport, c.Ranks, func(r *comm.Rank) (time.Duration, error) {
			send := make([][]byte, r.N())
			for dst := range send {
				send[dst] = make([]byte, pair)
			}
			return timedLoop(r, 2, calls, func() error {
				_, err := r.AlltoallvBytes(send, comm.AlltoallDirect)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("alltoallv over %s: %w", transport, err)
		}
		moved := float64(calls * c.Ranks * c.Ranks * pair)
		vals["comm."+transport+"_alltoallv_mb_per_s"] = moved / 1e6 / elapsed.Seconds()
	}
	const trips = 200
	elapsed, err := commWorld("tcp", 2, func(r *comm.Rank) (time.Duration, error) {
		payload := make([]byte, 4096)
		peer := 1 - r.ID
		return timedLoop(r, 5, trips, func() error {
			if r.ID == 0 {
				if err := r.Send(peer, 100, payload); err != nil {
					return err
				}
			}
			if _, _, err := r.Recv(peer, 100); err != nil {
				return err
			}
			if r.ID == 1 {
				return r.Send(peer, 100, payload)
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("tcp ping-pong: %w", err)
	}
	vals["comm.tcp_pingpong_us"] = elapsed.Seconds() * 1e6 / trips
	return nil
}

// timedLoop runs op warmup+n times between barriers and returns the time the
// last n took.
func timedLoop(r *comm.Rank, warmup, n int, op func() error) (time.Duration, error) {
	if err := r.Barrier(); err != nil {
		return 0, err
	}
	var start time.Time
	for i := 0; i < warmup+n; i++ {
		if i == warmup {
			start = time.Now()
		}
		if err := op(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// commWorld runs body on every rank of an n-rank world over the named
// transport and returns the duration rank 0 measured.
func commWorld(transport string, n int, body func(r *comm.Rank) (time.Duration, error)) (time.Duration, error) {
	var elapsed time.Duration
	rank := func(r *comm.Rank) error {
		d, err := body(r)
		if r.ID == 0 {
			elapsed = d
		}
		return err
	}
	if transport == "chan" {
		err := comm.NewWorld(n).Run(rank)
		return elapsed, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, err := comm.JoinTCP(comm.TCPOptions{Rank: id, N: n, Addrs: addrs})
			if err != nil {
				errs[id] = err
				return
			}
			err = rank(r)
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			errs[id] = err
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", id, err)
		}
	}
	return elapsed, nil
}

// probeSnapshotIO times writing and reading back the final state as a
// checkpoint.  sdf.Write syncs the file and its directory, so the write rate
// is that of durable writes on whatever filesystem the checkout is on.
func probeSnapshotIO(sim *twohot.Simulation, dir string, vals map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.sdf")
	defer os.Remove(path)
	snap := sim.Snapshot()
	var err error
	write := timeMedian(3, nil, func() {
		if werr := sdf.Write(path, snap); werr != nil {
			err = werr
		}
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	read := timeMedian(3, nil, func() {
		if _, rerr := sdf.Read(path); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	vals["sdf.bytes_per_checkpoint"] = float64(info.Size())
	vals["sdf.write_mb_per_s"] = mb / write
	vals["sdf.read_mb_per_s"] = mb / read
	return nil
}
