package core

import (
	"fmt"
	"time"

	"twohot/internal/comm"
	"twohot/internal/domain"
	"twohot/internal/particle"
	"twohot/internal/traverse"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// DistributedConfig configures a distributed (message-passing) force solve.
// The decomposition curve is not configurable: the local trees take a Morton
// key range, so the splitters are Morton keys by construction.
type DistributedConfig struct {
	// Tree configures every rank's local solve.  Tree.Workers is the budget
	// of one rank (RankSolver); DistributedStep, whose ranks share a process,
	// takes it as the budget of the whole world and divides it.
	Tree TreeConfig

	NRanks int

	// BranchExchange selects how the shared upper-tree branch cells are
	// distributed: "allgather" is the WS93 global concatenation, "ring" is
	// the 2HOT hierarchical pairwise aggregation that scales to very large
	// rank counts.
	BranchExchange string

	// UseWorkWeights balances domains by the per-particle interaction counts
	// of the previous step rather than by particle number.  Every production
	// caller sets it (the paper's load balancing, Section 3.1); the weights
	// ride in Set.Work through every exchange and in every snapshot, so a
	// resumed run decomposes exactly like the uninterrupted one.
	UseWorkWeights bool

	// ActiveMask tells DistributedStep that the set's particle.FlagActive
	// bits carry an activity mask (see RankSolver.ActiveForces for what a
	// masked solve does).  A set whose particles are all flagged active
	// degenerates to the full solve, bit-identically.
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

// DistributedStep performs one complete distributed force calculation for the
// particles in set on cfg.NRanks in-process ranks: the set is dealt out in
// contiguous chunks, every rank runs one RankSolver solve, and the particles
// come back with their accelerations filled in (order is NOT preserved: they
// are grouped by owning rank) together with the stage timings of Table 2.
func DistributedStep(set *particle.Set, cfg DistributedConfig) (*DistributedResult, error) {
	cfg.Tree.defaults()
	if cfg.NRanks < 1 {
		cfg.NRanks = 1
	}
	if set.Len() < cfg.NRanks*2 {
		return nil, fmt.Errorf("core: %d particles is too few for %d ranks", set.Len(), cfg.NRanks)
	}
	// The ranks run on goroutines of this process, so the worker budget is
	// split rather than oversubscribed.  (Worker count never changes a result
	// bit, so this is purely a scheduling choice.)
	cfg.Tree.Workers = max(1, cfg.Tree.Workers/cfg.NRanks)
	world := comm.NewWorld(cfg.NRanks)

	// Initial ownership: contiguous chunks of the input ordering.
	perRank := make([]*particle.Set, cfg.NRanks)
	for r := range perRank {
		perRank[r] = set.Chunk(r, cfg.NRanks)
	}

	results := make([]*Result, cfg.NRanks)
	traversal := make([]time.Duration, cfg.NRanks)
	start := time.Now()

	err := world.Run(func(r *comm.Rank) error {
		rs := NewRankSolver(r, cfg)
		res, err := rs.solve(perRank[r.ID], cfg.ActiveMask)
		results[r.ID], traversal[r.ID] = res, rs.traversal
		return err
	})
	if err != nil {
		return nil, err
	}

	// Aggregate.
	res := &DistributedResult{NRanks: cfg.NRanks, Comm: world.Statistics(), PerRankTraversal: traversal}
	res.ParticlesOut = particle.New(set.Len())
	var maxTrav, sumTrav time.Duration
	for r := 0; r < cfg.NRanks; r++ {
		res.Counters.Add(results[r].Counters)
		maxTrav = max(maxTrav, traversal[r])
		sumTrav += traversal[r]
		t := results[r].Timings
		res.Timings.DomainDecomposition = max(res.Timings.DomainDecomposition, t.DomainDecomposition)
		res.Timings.TreeBuild = max(res.Timings.TreeBuild, t.TreeBuild)
		res.Timings.TreeTraversal = max(res.Timings.TreeTraversal, t.TreeTraversal)
		res.Timings.Communication = max(res.Timings.Communication, t.Communication)
		res.Timings.ForceEvaluation = max(res.Timings.ForceEvaluation, t.ForceEvaluation)
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
// callback signature has no error path) to the recover in walkAll.
type fetchFailure struct{ err error }

// RankSolver is how one rank turns its particles into forces: domain
// decomposition, local tree build, branch exchange and the ABM dual
// traversal, against the rank's own particle set (mutated in place: the rank
// ends up owning a contiguous key range with Acc/Pot/Work filled in).  It
// satisfies step.Forcer, so the stepping engines drive a rank like any other
// solver, and it is the one body every distributed path runs —
// DistributedStep once per in-process rank, cluster.RankRun for the life of a
// run — which is what makes their results bit-identical.
//
// Global quantities (total mass, bounding box) are computed by rank-ordered
// collective reductions, so no process ever needs the full particle set.
//
// A solver keeps the decomposition of its previous solve and reuses those
// splitters verbatim — particles that drifted across a domain boundary are
// shipped to their owner and re-sorted, but no new splitters are chosen — so
// the substeps of one block step see a stable domain shape.  Thaw makes the
// next solve choose fresh splitters.  Reuse requires a periodic box (the key
// space must not change between solves).
type RankSolver struct {
	r         *comm.Rank
	cfg       DistributedConfig
	decomp    *domain.Decomposition
	traversal time.Duration // wall-clock of the last solve's traversal
}

// NewRankSolver returns rank r's solver.  cfg.Tree.Workers is this rank's own
// worker budget; cfg.NRanks and cfg.ActiveMask are not consulted (the world
// size is r.N(), the mask is ActiveForces' argument).
func NewRankSolver(r *comm.Rank, cfg DistributedConfig) *RankSolver {
	cfg.Tree.defaults()
	return &RankSolver{r: r, cfg: cfg}
}

// Thaw drops the kept decomposition: the next solve chooses fresh splitters.
func (s *RankSolver) Thaw() { s.decomp = nil }

// ActiveForces restricts the solve's sinks to the active mask (nil = all).
// The mask is stamped into the particle.FlagActive bits, which travel with
// the particles through the domain exchange; each rank maps its post-exchange
// flags into tree order and prunes the traversal to the active sink groups,
// and only the active slots of Acc/Pot/Work are written (inactive particles
// keep their previous values, exactly like step.Scatter with a mask).  moved
// is ignored: the local trees are rebuilt on every solve.
func (s *RankSolver) ActiveForces(p *particle.Set, active, moved []bool) (*Result, error) {
	if active != nil {
		p.SetActive(active)
	}
	return s.solve(p, active != nil)
}

// solve is one force solve over the rank's set my; masked says whether the
// set's FlagActive bits restrict the sinks.  The returned Result aliases the
// set's own Acc/Pot/Work arrays.
func (s *RankSolver) solve(my *particle.Set, masked bool) (*Result, error) {
	r, cfg := s.r, s.cfg
	var timings Timings

	// --- Global scalars -------------------------------------------------
	var box vec.Box
	if cfg.Tree.Periodic {
		box = vec.CubeBox(vec.V3{}, cfg.Tree.BoxSize)
	} else {
		local := vec.BoundingBox(my.Pos)
		for axis := 0; axis < 3; axis++ {
			lo, err := r.AllreduceFloat64(local.Lo[axis], "min")
			if err != nil {
				return nil, fmt.Errorf("core: bounding box reduce: %w", err)
			}
			hi, err := r.AllreduceFloat64(local.Hi[axis], "max")
			if err != nil {
				return nil, fmt.Errorf("core: bounding box reduce: %w", err)
			}
			local.Lo[axis], local.Hi[axis] = lo, hi
		}
		box = local.Cubed(1e-3)
	}
	totalMass, err := r.AllreduceFloat64(my.TotalMass(), "sum")
	if err != nil {
		return nil, fmt.Errorf("core: total mass reduce: %w", err)
	}
	rhoBar := 0.0
	if cfg.Tree.BackgroundSubtraction {
		rhoBar = totalMass / box.Volume()
	}

	// --- Domain decomposition -------------------------------------------
	t0 := time.Now()
	if s.decomp == nil {
		s.decomp, err = domain.Decompose(r, my, box, domain.Options{UseWork: cfg.UseWorkWeights})
		if err != nil {
			return nil, fmt.Errorf("core: domain decomposition: %w", err)
		}
	} else {
		// Reuse the kept splitters: ship boundary-crossers to their owner and
		// restore key order, but keep the domain shape fixed.  The key space
		// is the kept decomposition's box, which a periodic run guarantees
		// matches the box computed above.
		box = s.decomp.Box
		if err := domain.ExchangeParticles(r, my, s.decomp); err != nil {
			return nil, fmt.Errorf("core: frozen-domain exchange: %w", err)
		}
		my.SortByKey(box, s.decomp.Curve)
	}
	timings.DomainDecomposition = time.Since(t0)

	// --- Local tree construction -----------------------------------------
	t0 = time.Now()
	keyLo := uint64(1) << 63 // smallest body key (placeholder bit)
	keyHi := ^uint64(0)
	if r.ID > 0 {
		keyLo = s.decomp.Splitters[r.ID-1]
	}
	if r.ID < r.N()-1 {
		keyHi = s.decomp.Splitters[r.ID]
	}
	dt, err := tree.NewDistributed(my.Pos, my.Mass, box, tree.Options{
		Order:    cfg.Tree.Order,
		LeafSize: cfg.Tree.LeafSize,
		RhoBar:   rhoBar,
		Rank:     r.ID,
		Workers:  cfg.Tree.Workers,
	}, keyLo, keyHi)
	if err != nil {
		return nil, fmt.Errorf("core: local tree build: %w", err)
	}
	localBuild := time.Since(t0)

	// --- Branch exchange and shared upper tree ---------------------------
	t0 = time.Now()
	if err := exchangeBranches(r, dt, cfg.BranchExchange); err != nil {
		return nil, fmt.Errorf("core: branch exchange: %w", err)
	}
	dt.BuildUpper()
	timings.Communication += time.Since(t0)
	timings.TreeBuild = localBuild + time.Since(t0)

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
		return nil, fmt.Errorf("core: abm open: %w", err)
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
	if masked {
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
	if err != nil {
		// The transport is failing; Close would only fail on the same cause.
		_ = abm.Close()
		return nil, err
	}
	s.traversal = time.Since(t0)
	timings.TreeTraversal = s.traversal - commWait
	timings.Communication += commWait
	timings.ForceEvaluation = timings.TreeTraversal

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
		return nil, fmt.Errorf("core: abm close: %w", err)
	}
	return &Result{Acc: my.Acc, Pot: my.Pot, Work: my.Work, Counters: counters, Timings: timings}, nil
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
