package step

import (
	"math"
	"math/bits"
)

// MaxRungs caps the rung hierarchy (Config.BlockSteps): 16 levels span a
// factor 2^15 between the coarsest and the finest step, far beyond any
// dynamic range a single block step should bridge.
const MaxRungs = 16

// RungFor returns the smallest rung r in [0, maxRung] whose step base/2^r
// does not exceed maxStep — the paper's policy of restricting per-particle
// timestep changes to exact factors of two, applied hierarchically.  A
// non-positive maxStep lands on maxRung; an infinite one (a particle at
// rest) on rung 0.
func RungFor(base, maxStep float64, maxRung int) int {
	r := 0
	s := base
	for r < maxRung && s > maxStep {
		s /= 2
		r++
	}
	return r
}

// Schedule describes the substep ladder of one block step whose finest
// occupied rung is MaxRung: the block is divided into 2^MaxRung substeps,
// and rung r steps once every 2^(MaxRung-r) of them.  All rungs are active
// at substep 0, which is where rung reassignment is allowed — every
// particle's position sits at the block-start epoch there.
type Schedule struct{ MaxRung int }

// Substeps returns the number of substeps in the block.
func (s Schedule) Substeps() int { return 1 << s.MaxRung }

// Span returns how many substeps one step of rung r covers.
func (s Schedule) Span(r int) int { return 1 << (s.MaxRung - r) }

// LowestActive returns the coarsest rung active at substep k: rung r is
// active iff k is a multiple of Span(r), i.e. iff r >= LowestActive(k).
func (s Schedule) LowestActive(k int) int {
	if k == 0 {
		return 0
	}
	r := s.MaxRung - bits.TrailingZeros(uint(k))
	if r < 0 {
		r = 0
	}
	return r
}

// FactorCache memoizes a two-point integral factor (a cosmological kick or
// drift factor) for one fixed target epoch over the distinct "from" epochs
// appearing in a substep.  Particles sharing a rung history share a momentum
// epoch bit for bit, so a substep touches only a handful of distinct keys no
// matter how many particles it kicks — and when every particle shares one
// epoch (every particle on rung 0), the factor is computed by exactly one
// call with exactly the arguments of the leapfrog's single kick, which is
// what keeps an all-rung-0 multi-level block bit-identical to a one-level
// (global) step.
type FactorCache struct {
	f  func(a1, a2 float64) float64
	to float64
	m  map[uint64]float64
}

// NewFactorCache wraps the factor integral f(a1, a2).
func NewFactorCache(f func(a1, a2 float64) float64) *FactorCache {
	return &FactorCache{f: f, m: make(map[uint64]float64)}
}

// SetTarget fixes the target epoch and invalidates all memoized factors.
func (c *FactorCache) SetTarget(to float64) {
	c.to = to
	clear(c.m)
}

// At returns f(from, target), memoized on the bit pattern of from.
func (c *FactorCache) At(from float64) float64 {
	k := math.Float64bits(from)
	if v, ok := c.m[k]; ok {
		return v
	}
	v := c.f(from, c.to)
	c.m[k] = v
	return v
}
