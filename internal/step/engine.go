package step

import (
	"fmt"
	"math"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

// Forcer is the solver contract the integrator drives: one solve over a
// particle set, optionally restricted to an active subset.  It is the
// internal face of the root package's ForceSolver interface (which satisfies
// it structurally) and of core.TreeSolver and core.RankSolver, so the engine
// never knows which backend — tree, TreePM, mesh, direct summation or a rank
// of the distributed tree — produces the accelerations.
//
// The result is in the set's particle order and leaves the set's Acc/Pot/Work
// arrays to the caller: the engine decides which slots of a subset solve are
// written back (Scatter).  A full solve that also returns core.Result.Long
// selects the split integrator (see the package doc).
type Forcer interface {
	// ActiveForces computes forces for the sinks in the active mask (nil =
	// every particle) and passes the moved mask (nil = unknown) to
	// incremental backends.
	ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error)
}

// Clock is the integrator-owned time state of a simulation: the scale factor
// of the positions and the scale factor of the canonical momenta (half a
// step behind once the leapfrog is primed).  The engine mutates it in place;
// the owner (the root Simulation) copies it back after each call.
type Clock struct {
	A    float64
	AMom float64
}

// NewEngine returns the engine a run configuration describes: the
// block-timestep engine with max(levels, 1) rung levels — one level is the
// global leapfrog, every particle stepped by every solve — and displacement
// criterion frac (0 = the 0.1 default), measured against the mean
// interparticle separation box/cbrt(nParticles) of the whole load.
// math.Cbrt is exact on perfect cubes, so for an NGrid^3 lattice load the
// separation is bit for bit box/NGrid.
func NewEngine(par cosmo.Params, boxSize float64, nParticles, levels int, frac float64) *Block {
	return NewBlock(par, boxSize, boxSize/math.Cbrt(float64(nParticles)), max(levels, 1), frac)
}

// CheckpointDue is the checkpoint cadence of every stepping loop: a
// checkpoint follows every every-th completed step except the run's last —
// the result snapshot is that state.
func CheckpointDue(stepsDone, every, nSteps int) bool {
	return every > 0 && stepsDone%every == 0 && stepsDone < nSteps
}

// Scatter writes a solve's results back into the particle set: every slot
// for a full solve (active == nil), only the active slots otherwise — the
// slots of inactive particles are unspecified in a subset solve's Result and
// must keep their previous values.  Nil Result arrays (backends without
// potential or work support) leave the corresponding particle arrays
// untouched.
func Scatter(p *particle.Set, res *core.Result, active []bool) {
	if active == nil {
		copy(p.Acc, res.Acc)
		if res.Pot != nil {
			copy(p.Pot, res.Pot)
		}
		if res.Work != nil {
			copy(p.Work, res.Work)
		}
		return
	}
	for i, a := range active {
		if !a {
			continue
		}
		p.Acc[i] = res.Acc[i]
		if res.Pot != nil {
			p.Pot[i] = res.Pot[i]
		}
		if res.Work != nil {
			p.Work[i] = res.Work[i]
		}
	}
}

// NewGlobal returns the global leapfrog for the given background cosmology
// and periodic box: a one-level Block, whose every Advance is one fully
// active kick-drift step.  The benchmark's kick-drift probe builds its
// engine here.
func NewGlobal(par cosmo.Params, boxSize float64) *Block {
	return NewBlock(par, boxSize, 0, 1, 0)
}

// workDecay is the rate at which Block pulls the stale work weights of
// long-inactive particles back toward the mean at the end of each block (see
// decayStaleWork).
const workDecay = 0.5

// Block is the hierarchical block-timestep engine: each Advance runs one
// block of 2^maxUsedRung substeps, with rungs assigned at the block start
// from the per-particle displacement criterion, and each substep solving
// forces only for the sinks on its active rungs while the inactive particles
// stay frozen (which is what lets the tree rebuild and the traversal reuse
// their subtrees bit-identically).  A block whose particles all land on
// rung 0 is one fully active substep: the global comoving leapfrog, which is
// why a one-level Block (NewGlobal, NewEngine with levels <= 1) is the
// global-timestep engine and every multi-level block whose particles stay on
// rung 0 reproduces it bit for bit.
//
// The per-particle integrator state (rung, momentum epoch, activity flags)
// lives in the particle set itself (Set.Rung/MomEpoch/Flags), so a Forcer
// that regroups particles — the distributed solvers exchange them between
// ranks mid-substep — carries the state along with the particle.  The engine
// re-derives its activity masks from the set after every solve; the kick and
// drift arithmetic depends only on each particle's own state and the block's
// scalar epochs, so a regrouped order changes no result bit.
type Block struct {
	Par     cosmo.Params
	BoxSize float64

	// Levels is the number of rung levels (Config.BlockSteps); rungs range
	// over [0, Levels-1].
	Levels int
	// DisplacementFrac is the per-particle rung criterion: one rung-r step
	// may move a particle at most this fraction of Sep.  0 means 0.1.
	DisplacementFrac float64
	// Sep is the mean interparticle separation the criterion is measured
	// against.
	Sep float64

	// AgreeRungs, when set, merges the per-rank rung histograms at the start
	// of each block of a multi-level engine (a one-level schedule has
	// nothing to agree, so it is never called when Levels is 1) so every
	// rank derives the same substep schedule: it
	// receives this rank's histogram (length Levels, index = rung) and must
	// return the element-wise global sum — one allgather+sum in a distributed
	// run, identity when nil.  The agreed histogram also becomes
	// RungHistogram's value, so observers see global occupancy on every rank.
	AgreeRungs func(local []int) ([]int, error)

	p          *particle.Set
	primed     bool
	movedValid bool
	hist       []int
	active     []bool
	moved      []bool
}

// NewBlock returns a block-timestep engine with levels rung levels and the
// given displacement criterion (frac 0 = the 0.1 default), measured against
// the mean interparticle separation sep.
func NewBlock(par cosmo.Params, boxSize, sep float64, levels int, frac float64) *Block {
	return &Block{
		Par: par, BoxSize: boxSize,
		Levels: levels, DisplacementFrac: frac, Sep: sep,
	}
}

// RungHistogram returns the particle count per timestep rung of the current
// block (index = rung level), or nil when no block has run yet.  With an
// AgreeRungs hook installed on a multi-level engine the histogram is the
// agreed global one, identical on every rank; otherwise it counts the local
// particles.
func (b *Block) RungHistogram() []int {
	if !b.primed || b.hist == nil {
		return nil
	}
	return append([]int(nil), b.hist...)
}

// Reset drops the per-particle integrator history, as after installing a new
// particle load.  The next Advance re-primes every particle's momentum epoch
// from the clock.
func (b *Block) Reset() {
	b.p = nil
	b.primed = false
	b.movedValid = false
	b.hist = nil
}

// CheckpointReady reports whether the integrator state collapses to the
// single momentum epoch aMom a snapshot can represent.  A multi-rung block
// leaves every particle's momentum at its own rung's half step, which it
// cannot.
func (b *Block) CheckpointReady(aMom float64) error {
	if !b.primed || b.p == nil {
		return nil
	}
	for _, am := range b.p.MomEpoch {
		if am != aMom {
			return fmt.Errorf("step: block-stepped momenta sit at per-particle epochs; call Synchronize before writing a checkpoint")
		}
	}
	return nil
}

// resizeBool returns s with length n, reallocating only on growth.
func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// prime attaches the engine to p and, on a fresh engine, sets every
// particle's momentum epoch from the clock: the first Advance kicks from
// there, so a fresh clock (AMom == A) primes the leapfrog's half-step offset.
func (b *Block) prime(p *particle.Set, clk *Clock) {
	b.p = p
	if b.primed {
		return
	}
	for i := range p.MomEpoch {
		p.MomEpoch[i] = clk.AMom
	}
	b.movedValid = false
	b.primed = true
}

// Advance performs one hierarchical block step of total size dlnA.
func (b *Block) Advance(f Forcer, p *particle.Set, clk *Clock, dlnA float64) (*core.Result, error) {
	b.prime(p, clk)

	// Rung assignment from the current momenta: one rung-r step may move a
	// particle at most frac of the mean interparticle separation (the
	// per-particle form of the displacement limit).
	maxRung := b.Levels - 1
	frac := b.DisplacementFrac
	if frac == 0 {
		frac = 0.1
	}
	limit := frac * b.Sep * clk.A * clk.A * b.Par.Hubble(clk.A)
	for i := range p.Rung {
		v := p.Mom[i].Norm()
		if v == 0 {
			p.Rung[i] = 0
			continue
		}
		p.Rung[i] = int8(RungFor(dlnA, limit/v, maxRung))
	}

	// Rung agreement: every rank must derive the same substep schedule, so
	// the block's depth comes from the (agreed) histogram, not the local max.
	local := make([]int, b.Levels)
	for _, r := range p.Rung {
		local[r]++
	}
	agreed := local
	if b.AgreeRungs != nil && b.Levels > 1 {
		var err error
		if agreed, err = b.AgreeRungs(local); err != nil {
			return nil, err
		}
	}
	maxUsed := 0
	for r, c := range agreed {
		if c > 0 {
			maxUsed = r
		}
	}
	b.hist = append([]int(nil), agreed[:maxUsed+1]...)

	sched := Schedule{MaxRung: maxUsed}
	nSub := sched.Substeps()
	h := dlnA / float64(nSub)
	nRungs := sched.MaxRung + 1

	// Per-rung epochs: every rung starts the block at clk.A and advances by
	// its own span, so all rungs land on the block boundary together.
	aPos := make([]float64, nRungs)
	aNext := make([]float64, nRungs)
	aHalf := make([]float64, nRungs)
	drift := make([]float64, nRungs)
	kicks := make([]*FactorCache, nRungs)
	for r := range aPos {
		aPos[r] = clk.A
		kicks[r] = NewFactorCache(b.Par.KickFactor)
	}

	var last *core.Result
	aMomEnd := clk.AMom
	// split: substep 0 kicked a long range over the base step, so every later
	// substep masks its solve, even when all are active (rung 0 empty), to
	// get the short range alone; else the long range would be kicked twice.
	split := false
	for k := 0; k < nSub; k++ {
		rMin := sched.LowestActive(k)
		n := p.Len()
		b.active = resizeBool(b.active, n)
		nActive := 0
		for i, r := range p.Rung {
			a := int(r) >= rMin
			b.active[i] = a
			if a {
				nActive++
				p.Flags[i] |= particle.FlagActive
			} else {
				p.Flags[i] &^= particle.FlagActive
			}
		}
		var moved []bool
		if b.movedValid {
			b.moved = resizeBool(b.moved, n)
			for i, fl := range p.Flags {
				b.moved[i] = fl&particle.FlagMoved != 0
			}
			moved = b.moved
		}

		var active []bool
		if nActive < n || split {
			active = b.active
		}
		// A fully active substep passes a nil mask: it is identical to the
		// global force path (the moved set still prunes the tree rebuild).
		res, err := f.ActiveForces(p, active, moved)
		if err != nil {
			return nil, err
		}
		// A distributed forcer may have regrouped the set (particles shipped
		// between ranks travel with their Rung/MomEpoch/Flags); rebuild the
		// activity mask from the set before touching any particle.
		n = p.Len()
		b.active = resizeBool(b.active, n)
		nActive = 0
		for i, r := range p.Rung {
			a := int(r) >= rMin
			b.active[i] = a
			if a {
				nActive++
			}
		}
		active = nil
		if nActive < n {
			active = b.active
		}
		Scatter(p, res, active)
		last = res

		for r := rMin; r < nRungs; r++ {
			span := sched.Span(r)
			an := aPos[r] * math.Exp(float64(span)*h)
			if an > 1 {
				an = 1
			}
			aNext[r] = an
			aHalf[r] = math.Sqrt(aPos[r] * an)
			drift[r] = b.Par.DriftFactor(aPos[r], an)
			kicks[r].SetTarget(aHalf[r])
		}
		var long []vec.V3
		kLong := 0.0
		if k == 0 {
			// Rung 0's half step is the block-level momentum epoch the
			// global bookkeeping (and checkpoints) track.
			aMomEnd = aHalf[0]
			if res.Long != nil {
				long, kLong, split = res.Long, kicks[0].At(clk.AMom), true
			}
		}

		// Kick, then drift, each over the active particles in index order —
		// the exact update order of the global step.  Each update reads only
		// the particle's own state and the per-rung scalars, so the bits are
		// independent of the set's ordering.
		for i := range p.Mom {
			if !b.active[i] {
				continue
			}
			r := int(p.Rung[i])
			p.Mom[i] = kick(p.Mom[i], p.Acc[i], kicks[r].At(p.MomEpoch[i]), long, i, kLong)
			p.MomEpoch[i] = aHalf[r]
		}
		l := b.BoxSize
		for i := range p.Pos {
			if !b.active[i] {
				continue
			}
			p.Pos[i] = vec.WrapV(p.Pos[i].Add(p.Mom[i].Scale(drift[int(p.Rung[i])])), l)
		}
		for i := range p.Flags {
			if b.active[i] {
				p.Flags[i] |= particle.FlagMoved
			} else {
				p.Flags[i] &^= particle.FlagMoved
			}
		}
		b.movedValid = true
		for r := rMin; r < nRungs; r++ {
			aPos[r] = aNext[r]
		}
	}
	clk.A = aPos[0]
	clk.AMom = aMomEnd
	b.decayStaleWork(p, sched)
	return last, nil
}

// kick returns mom + acc·kf, kf being the particle's own factor, plus, when
// the solve split off a long range (part of acc), long[i]·(kLong − kf), so
// that part goes over the base step's factor kLong.  A zero correction is
// skipped: a rung-0 particle at the block's epoch keeps its unsplit bits.
func kick(mom, acc vec.V3, kf float64, long []vec.V3, i int, kLong float64) vec.V3 {
	mom = mom.Add(acc.Scale(kf))
	if long != nil {
		if d := kLong - kf; d != 0 {
			mom = mom.Add(long[i].Scale(d))
		}
	}
	return mom
}

// decayStaleWork pulls the work weights of particles that were inactive for
// most of the block back toward the mean.  A rung-r particle's weight was
// last refreshed Span(r) substeps before the block boundary, so coarse-rung
// weights describe a progressively older force solve; left alone they make
// domain.SplitWeighted chase hot spots that have since cooled.  The blend
// factor workDecay*(1 - 1/Span(r)) grows with staleness and vanishes for the
// finest rung and for single-rung blocks — weights steer only the worker
// shards, never a result bit, so the all-rung-0 bit-identity with the
// one-level engine is untouched (and so is every force of a multi-rung block).
func (b *Block) decayStaleWork(p *particle.Set, sched Schedule) {
	if sched.MaxRung == 0 || p.Len() == 0 {
		return
	}
	mean := 0.0
	for _, w := range p.Work {
		mean += w
	}
	mean /= float64(p.Len())
	for i := range p.Work {
		span := sched.Span(int(p.Rung[i]))
		if span <= 1 {
			continue
		}
		alpha := workDecay * (1 - 1/float64(span))
		p.Work[i] += alpha * (mean - p.Work[i])
	}
}

// Synchronize closes the leapfrog: positions all sit at the block boundary
// clk.A, and each particle's momentum is kicked from its own epoch up to it.
// When every particle shares one epoch the factor cache makes exactly the
// one KickFactor(clk.AMom, clk.A) call of a single closing kick.  Returns
// (nil, nil) without a solve when the clock is already synchronized — a
// verdict every rank of a distributed run reaches alike.
func (b *Block) Synchronize(f Forcer, p *particle.Set, clk *Clock) (*core.Result, error) {
	b.prime(p, clk)
	if clk.AMom == clk.A {
		return nil, nil
	}
	var moved []bool
	if b.movedValid {
		b.moved = resizeBool(b.moved, p.Len())
		for i, fl := range p.Flags {
			b.moved[i] = fl&particle.FlagMoved != 0
		}
		moved = b.moved
	}
	res, err := f.ActiveForces(p, nil, moved)
	if err != nil {
		return nil, err
	}
	Scatter(p, res, nil)
	// The solve consumed the current positions; nothing has moved since.
	for i := range p.Flags {
		p.Flags[i] &^= particle.FlagMoved
	}
	b.movedValid = true

	cache := NewFactorCache(b.Par.KickFactor)
	cache.SetTarget(clk.A)
	kLong := 0.0
	if res.Long != nil {
		kLong = cache.At(clk.AMom)
	}
	for i := range p.Mom {
		p.Mom[i] = kick(p.Mom[i], res.Acc[i], cache.At(p.MomEpoch[i]), res.Long, i, kLong)
		p.MomEpoch[i] = clk.A
	}
	clk.AMom = clk.A
	return res, nil
}
