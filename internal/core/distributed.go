package core

import (
	"fmt"
	"time"

	"twohot/internal/comm"
	"twohot/internal/domain"
	"twohot/internal/keys"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/traverse"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// DistributedConfig configures a distributed (message-passing) force step.
type DistributedConfig struct {
	Tree TreeConfig

	NRanks int
	Curve  keys.Curve

	// BranchExchange selects how the shared upper-tree branch cells are
	// distributed: "allgather" is the WS93 global concatenation, "ring" is
	// the 2HOT hierarchical pairwise aggregation that scales to very large
	// rank counts.
	BranchExchange string

	// UseWorkWeights balances domains by the per-particle interaction counts
	// of the previous step rather than by particle number.
	UseWorkWeights bool

	// ActiveMask restricts the solve's sinks to the particles carrying
	// particle.FlagActive: the flags travel with the particles through the
	// domain exchange, each rank maps its post-exchange flags into tree order
	// and prunes the traversal to the active sink groups, and only the active
	// slots of Acc/Pot/Work are written back (inactive particles keep their
	// previous values, exactly like step.Scatter with a mask).  A set whose
	// particles are all flagged active degenerates to the full solve,
	// bit-identically.
	ActiveMask bool
}

// DistributedResult aggregates the outcome of a distributed step.
type DistributedResult struct {
	Timings      Timings
	Counters     traverse.Counters
	Comm         comm.Stats
	NRanks       int
	Imbalance    float64 // max/mean traversal time across ranks
	ParticlesOut *particle.Set
	// PerRankTraversal records each rank's traversal wall-clock time.
	PerRankTraversal []time.Duration
}

// RankOutcome is one rank's share of a distributed force calculation: the
// stage timings, interaction counters, and traversal wall-clock the
// aggregation of Table 2 needs.
type RankOutcome struct {
	Timings   Timings
	Counters  traverse.Counters
	Traversal time.Duration
}

// DistributedStep performs one complete distributed force calculation for the
// particles in set: domain decomposition (parallel sample sort and particle
// exchange), local tree builds, branch exchange, shared upper-tree assembly,
// and the request/reply (ABM) dual traversal.  It returns the particles with
// their accelerations filled in (order is NOT preserved: particles come back
// grouped by owning rank) together with the stage timings of Table 2.
func DistributedStep(set *particle.Set, cfg DistributedConfig) (*DistributedResult, error) {
	cfg.Tree.defaults()
	if cfg.NRanks < 1 {
		cfg.NRanks = 1
	}
	if set.Len() < cfg.NRanks*2 {
		return nil, fmt.Errorf("core: %d particles is too few for %d ranks", set.Len(), cfg.NRanks)
	}
	world := comm.NewWorld(cfg.NRanks)

	// Initial ownership: contiguous chunks of the input ordering.
	perRank := make([]*particle.Set, cfg.NRanks)
	for r := range perRank {
		perRank[r] = set.Chunk(r, cfg.NRanks)
	}

	outcomes := make([]*RankOutcome, cfg.NRanks)
	start := time.Now()

	err := world.Run(func(r *comm.Rank) error {
		out, err := DistributedRankForces(r, perRank[r.ID], cfg)
		if err != nil {
			return err
		}
		outcomes[r.ID] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate.
	res := &DistributedResult{NRanks: cfg.NRanks, Comm: world.Statistics()}
	res.ParticlesOut = particle.New(set.Len())
	var maxTrav, sumTrav time.Duration
	for r := 0; r < cfg.NRanks; r++ {
		res.Counters.Add(outcomes[r].Counters)
		res.PerRankTraversal = append(res.PerRankTraversal, outcomes[r].Traversal)
		if outcomes[r].Traversal > maxTrav {
			maxTrav = outcomes[r].Traversal
		}
		sumTrav += outcomes[r].Traversal
		res.Timings.DomainDecomposition = maxDuration(res.Timings.DomainDecomposition, outcomes[r].Timings.DomainDecomposition)
		res.Timings.TreeBuild = maxDuration(res.Timings.TreeBuild, outcomes[r].Timings.TreeBuild)
		res.Timings.TreeTraversal = maxDuration(res.Timings.TreeTraversal, outcomes[r].Timings.TreeTraversal)
		res.Timings.Communication = maxDuration(res.Timings.Communication, outcomes[r].Timings.Communication)
		res.Timings.ForceEvaluation = maxDuration(res.Timings.ForceEvaluation, outcomes[r].Timings.ForceEvaluation)
		for i := 0; i < perRank[r].Len(); i++ {
			res.ParticlesOut.AppendFrom(perRank[r], i)
		}
	}
	meanTrav := sumTrav / time.Duration(cfg.NRanks)
	if meanTrav > 0 {
		res.Imbalance = float64(maxTrav) / float64(meanTrav)
	} else {
		res.Imbalance = 1
	}
	res.Timings.LoadImbalance = maxTrav - meanTrav
	res.Timings.Total = time.Since(start)
	return res, nil
}

// fetchFailure carries a FetchChildren error out of the traversal (whose
// callback signature has no error path) to the recover in
// DistributedRankForces.
type fetchFailure struct{ err error }

// DistributedRankForces is one rank's share of DistributedStep: domain
// decomposition, local tree build, branch exchange, and the ABM dual
// traversal, all against the rank's own particle set (mutated in place: the
// rank ends up owning a contiguous key range with Acc/Pot/Work filled in).
// It is the body both the in-process world and the multi-process TCP workers
// run — the same code on both transports is what makes an N-process run
// bit-identical to the in-process one.
//
// Global quantities (total mass, bounding box) are computed by rank-ordered
// collective reductions, so no process ever needs the full particle set.
func DistributedRankForces(r *comm.Rank, my *particle.Set, cfg DistributedConfig) (*RankOutcome, error) {
	out, _, err := DistributedRankForcesReuse(r, my, cfg, nil)
	return out, err
}

// DistributedRankForcesReuse is DistributedRankForces with an explicit
// decomposition seam for block-stepped cluster runs: when frozen is non-nil
// its splitters are reused verbatim — particles that drifted across a domain
// boundary are shipped to their owner and re-sorted, but no new splitters are
// chosen — so the substeps of one block see a stable domain shape and the
// rechunk-at-synchronization contract of internal/cluster holds.  Freezing
// requires a periodic box (the key space must not change between substeps);
// pass nil to choose fresh splitters exactly like DistributedRankForces.
// The returned decomposition is the one used, for the caller to freeze.
func DistributedRankForcesReuse(r *comm.Rank, my *particle.Set, cfg DistributedConfig, frozen *domain.Decomposition) (out *RankOutcome, decomp *domain.Decomposition, err error) {
	cfg.Tree.defaults()
	out = &RankOutcome{}

	// --- Global scalars -------------------------------------------------
	var box vec.Box
	if cfg.Tree.Periodic {
		box = vec.CubeBox(vec.V3{}, cfg.Tree.BoxSize)
	} else {
		local := vec.BoundingBox(my.Pos)
		for axis := 0; axis < 3; axis++ {
			lo, rerr := r.AllreduceFloat64(local.Lo[axis], "min")
			if rerr != nil {
				return nil, nil, fmt.Errorf("core: bounding box reduce: %w", rerr)
			}
			hi, rerr := r.AllreduceFloat64(local.Hi[axis], "max")
			if rerr != nil {
				return nil, nil, fmt.Errorf("core: bounding box reduce: %w", rerr)
			}
			local.Lo[axis], local.Hi[axis] = lo, hi
		}
		box = local.Cubed(1e-3)
	}
	totalMass, err := r.AllreduceFloat64(my.TotalMass(), "sum")
	if err != nil {
		return nil, nil, fmt.Errorf("core: total mass reduce: %w", err)
	}
	rhoBar := 0.0
	if cfg.Tree.BackgroundSubtraction {
		rhoBar = totalMass / box.Volume()
	}

	// --- Domain decomposition -------------------------------------------
	t0 := time.Now()
	if frozen == nil {
		decomp, err = domain.Decompose(r, my, box, domain.Options{
			Curve:   cfg.Curve,
			UseWork: cfg.UseWorkWeights,
		}, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: domain decomposition: %w", err)
		}
	} else {
		// Reuse the frozen splitters: ship boundary-crossers to their owner
		// and restore key order, but keep the domain shape fixed.  The key
		// space is the frozen decomposition's box, which a periodic run
		// guarantees matches the box computed above.
		decomp = frozen
		box = decomp.Box
		if err := domain.ExchangeParticles(r, my, decomp); err != nil {
			return nil, nil, fmt.Errorf("core: frozen-domain exchange: %w", err)
		}
		my.SortByKey(decomp.Box, decomp.Curve)
	}
	out.Timings.DomainDecomposition = time.Since(t0)

	// --- Local tree construction -----------------------------------------
	t0 = time.Now()
	keyLo := uint64(1) << 63 // smallest body key (placeholder bit)
	keyHi := ^uint64(0)
	if r.ID > 0 {
		keyLo = decomp.Splitters[r.ID-1]
	}
	if r.ID < r.N()-1 {
		keyHi = decomp.Splitters[r.ID]
	}
	// The worker budget is a per-world total: in-process ranks run on their
	// own goroutines, so split it rather than oversubscribing.  (Worker
	// count never changes result bits — pinned since the build/traversal
	// parallelism PRs — so this is purely a scheduling choice; multi-process
	// deployments pass a per-process budget of Workers*N.)
	buildWorkers := cfg.Tree.Workers / r.N()
	if buildWorkers < 1 {
		buildWorkers = 1
	}
	dt, err := tree.NewDistributed(my.Pos, my.Mass, box, tree.Options{
		Order:    cfg.Tree.Order,
		LeafSize: cfg.Tree.LeafSize,
		RhoBar:   rhoBar,
		Rank:     r.ID,
		Workers:  buildWorkers,
	}, keyLo, keyHi)
	if err != nil {
		return nil, nil, fmt.Errorf("core: local tree build: %w", err)
	}
	localBuild := time.Since(t0)

	// --- Branch exchange and shared upper tree ---------------------------
	t0 = time.Now()
	if err := exchangeBranches(r, dt, cfg.BranchExchange); err != nil {
		return nil, nil, fmt.Errorf("core: branch exchange: %w", err)
	}
	dt.BuildUpper()
	out.Timings.Communication += time.Since(t0)
	out.Timings.TreeBuild = localBuild + time.Since(t0)

	// --- Traversal with ABM request/reply ---------------------------------
	// The ABM handler runs concurrently with this rank's own traversal,
	// which grows the tree's cell table with fetched remote cells.  It
	// therefore serves requests from an immutable snapshot of the *local*
	// cells built here, never touching the live hash table.
	localChildren := make(map[uint64][]*tree.Cell)
	for _, c := range dt.Cell {
		if c.Remote || c.Owner != r.ID {
			continue
		}
		var kids []*tree.Cell
		for oct := 0; oct < 8; oct++ {
			if c.ChildIdx[oct] != tree.NoChild {
				kids = append(kids, dt.Cell[c.ChildIdx[oct]])
			}
		}
		localChildren[uint64(c.Key)] = kids
	}
	abm, err := r.NewABM(func(src int, reqKeys []uint64) [][]byte {
		replies := make([][]byte, len(reqKeys))
		for i, k := range reqKeys {
			replies[i] = dt.EncodeCells(localChildren[k])
		}
		return replies
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: abm open: %w", err)
	}
	var commWait time.Duration
	dt.FetchChildren = func(c *tree.Cell) []tree.Cell {
		tw := time.Now()
		reply, rerr := abm.RequestSync(c.Owner, []uint64{uint64(c.Key)})
		commWait += time.Since(tw)
		if rerr != nil {
			panic(fetchFailure{fmt.Errorf("fetch children of cell %d from rank %d: %w", c.Key, c.Owner, rerr)})
		}
		if len(reply) == 0 {
			return nil
		}
		cells, derr := tree.DecodeCells(reply[0])
		if derr != nil {
			panic(fetchFailure{fmt.Errorf("decode children of cell %d: %w", c.Key, derr)})
		}
		return cells
	}

	t0 = time.Now()
	w := traverse.NewWalker(dt.Tree, cfg.Tree.walkConfig(totalMass, box))
	w.WorkOut = make([]float64, len(dt.Tree.Pos))
	// Activity restriction: the flags traveled with the particles through the
	// exchange above, so the post-exchange set carries exactly the sinks the
	// stepping engine marked active.  Map them into tree (sorted) order.
	var sinkActive []bool
	if cfg.ActiveMask {
		sinkActive = make([]bool, my.Len())
		nAct := 0
		for i, orig := range dt.SortIndex {
			a := my.Flags[orig]&particle.FlagActive != 0
			sinkActive[i] = a
			if a {
				nAct++
			}
		}
		if nAct == my.Len() {
			sinkActive = nil // fully active: take the full-solve path bit for bit
		}
	}
	w.SinkActive = sinkActive
	acc, pot, counters, err := walkAll(w)
	w.SinkActive = nil
	if err != nil {
		// The transport is failing; Close would only fail on the same cause.
		_ = abm.Close()
		return nil, nil, err
	}
	out.Traversal = time.Since(t0)
	out.Timings.TreeTraversal = out.Traversal - commWait
	out.Timings.Communication += commWait
	out.Timings.ForceEvaluation = out.Timings.TreeTraversal
	out.Counters = counters

	// Scatter the results back into the rank's particle set and record
	// each particle's actual interaction count for the next decomposition
	// (the splitters then balance real work, not the rank-averaged estimate
	// used previously).  Under an active mask only the active slots are
	// written; inactive particles keep their previous values, like
	// step.Scatter with a mask.
	for i, orig := range dt.SortIndex {
		if sinkActive != nil && !sinkActive[i] {
			continue
		}
		my.Acc[orig] = acc[i]
		my.Pot[orig] = pot[i]
		my.Work[orig] = w.WorkOut[i]
	}

	if err := abm.Close(); err != nil {
		return nil, nil, fmt.Errorf("core: abm close: %w", err)
	}
	return out, decomp, nil
}

// walkAll runs the walker's full traversal, translating a FetchChildren
// failure (which surfaces as a typed panic through the error-less callback)
// back into an error.
func walkAll(w *traverse.Walker) (acc []vec.V3, pot []float64, counters traverse.Counters, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ff, ok := p.(fetchFailure); ok {
				err = fmt.Errorf("core: traversal: %w", ff.err)
				return
			}
			panic(p)
		}
	}()
	acc, pot, counters = w.ForcesForAll(1)
	return acc, pot, counters, nil
}

// exchangeBranches distributes every rank's branch cells to every other rank.
// Cell blocks concatenate (tree.EncodeCells), so both modes move and append
// encoded bytes and decode each received block once.
func exchangeBranches(r *comm.Rank, dt *tree.Distributed, mode string) error {
	encoded := dt.EncodeCells(dt.LocalBranches())
	addRemote := func(src int, block []byte) error {
		cells, err := tree.DecodeCells(block)
		if err != nil {
			return fmt.Errorf("branch cells from rank %d: %w", src, err)
		}
		for _, c := range cells {
			if c.Owner != r.ID {
				dt.AddRemoteCell(c)
			}
		}
		return nil
	}

	switch mode {
	case "ring":
		// Hierarchical pairwise aggregation (Section 3.2): exchange the
		// accumulated branch set with the 2^i-th neighbor along the
		// space-filling curve, log2(N) times.  When N is not a power of two
		// the last rounds re-deliver cells already known, which
		// AddRemoteCell ignores.
		known := encoded
		n := r.N()
		const tagBranch = 7000
		for step := 1; step < n; step <<= 1 {
			dst := (r.ID + step) % n
			src := (r.ID - step%n + n) % n
			if err := r.Send(dst, tagBranch+step, known); err != nil {
				return err
			}
			block, _, err := r.Recv(src, tagBranch+step)
			if err != nil {
				return err
			}
			if err := addRemote(src, block); err != nil {
				return err
			}
			known = append(known, block...)
		}
		return r.Barrier()
	default: // "allgather" (WS93 global concatenation)
		blocks, err := r.AllgatherBytes(encoded)
		if err != nil {
			return err
		}
		for src, block := range blocks {
			if src == r.ID {
				continue
			}
			if err := addRemote(src, block); err != nil {
				return err
			}
		}
		return nil
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// EffectiveGflops converts an interaction-count record and a wall-clock time
// into the paper's performance metric.
func EffectiveGflops(c traverse.Counters, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Flops()) / elapsed.Seconds() / 1e9
}

// VerifyAgainstShared recomputes forces for the distributed result's
// particles with the shared-memory solver and returns the error statistics
// (matching particles by ID).  Used by tests and the Table 2 harness to show
// the distributed and shared paths agree.
func VerifyAgainstShared(out *particle.Set, cfg TreeConfig) (AccuracyStats, error) {
	solver := NewTreeSolver(cfg)
	res, err := solver.Forces(out.Pos, out.Mass)
	if err != nil {
		return AccuracyStats{}, err
	}
	return CompareAccelerations(out.Acc, res.Acc), nil
}

// DefaultKernel is the production smoothing kernel of the paper.
const DefaultKernel = softening.DehnenK1
