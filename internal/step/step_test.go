package step

import (
	"math"
	"testing"
)

func TestRungFor(t *testing.T) {
	for _, tc := range []struct {
		base, maxStep float64
		maxRung, want int
	}{
		{1, 1, 4, 0},           // fits at the base step
		{1, 2, 4, 0},           // coarser than base still lands on rung 0
		{1, 0.5, 4, 1},         // exactly half: one halving
		{1, 0.26, 4, 2},        // between /4 and /2
		{1, 1e-9, 4, 4},        // clamped at maxRung
		{1, 0, 4, 4},           // non-positive limit: finest rung
		{1, math.Inf(1), 4, 0}, // particle at rest
		{1, 0.3, 0, 0},         // single-rung hierarchy
	} {
		if got := RungFor(tc.base, tc.maxStep, tc.maxRung); got != tc.want {
			t.Errorf("RungFor(%g, %g, %d) = %d, want %d",
				tc.base, tc.maxStep, tc.maxRung, got, tc.want)
		}
	}
	// NaN limits must not loop or land below rung 0.
	if got := RungFor(1, math.NaN(), 4); got != 0 {
		t.Errorf("NaN limit: got %d", got)
	}
}

// TestScheduleLadder checks the defining properties of the substep ladder:
// rung r is active exactly at multiples of its span, every rung is active at
// substep 0, and each rung takes exactly 2^r steps per block — so all
// position epochs align again at the block boundary.
func TestScheduleLadder(t *testing.T) {
	for R := 0; R <= 5; R++ {
		s := Schedule{MaxRung: R}
		if s.Substeps() != 1<<R {
			t.Fatalf("R=%d: substeps %d", R, s.Substeps())
		}
		steps := make([]int, R+1)
		for k := 0; k < s.Substeps(); k++ {
			lo := s.LowestActive(k)
			for r := 0; r <= R; r++ {
				active := r >= lo
				if active != (k%s.Span(r) == 0) {
					t.Fatalf("R=%d k=%d r=%d: LowestActive=%d but span=%d", R, k, r, lo, s.Span(r))
				}
				if active {
					steps[r]++
				}
			}
			if k == 0 && lo != 0 {
				t.Fatalf("R=%d: block start must activate every rung", R)
			}
		}
		for r := 0; r <= R; r++ {
			if steps[r] != 1<<r {
				t.Fatalf("R=%d rung %d stepped %d times, want %d", R, r, steps[r], 1<<r)
			}
		}
	}
}

func TestRungForSpread(t *testing.T) {
	maxStep := []float64{2, 0.5, 0.1, math.Inf(1)}
	dst := make([]int8, len(maxStep))
	for i, ms := range maxStep {
		dst[i] = int8(RungFor(1, ms, 3))
	}
	want := []int8{0, 1, 3, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("rung[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestFactorCache(t *testing.T) {
	calls := 0
	c := NewFactorCache(func(a1, a2 float64) float64 {
		calls++
		return a2 - a1
	})
	c.SetTarget(1.0)
	if v := c.At(0.25); v != 0.75 {
		t.Fatalf("At(0.25) = %g", v)
	}
	if v := c.At(0.25); v != 0.75 || calls != 1 {
		t.Fatalf("second At(0.25) = %g with %d calls", v, calls)
	}
	if v := c.At(0.5); v != 0.5 || calls != 2 {
		t.Fatalf("At(0.5) = %g with %d calls", v, calls)
	}
	// Retargeting must invalidate every memoized entry.
	c.SetTarget(2.0)
	if v := c.At(0.25); v != 1.75 || calls != 3 {
		t.Fatalf("after retarget: At(0.25) = %g with %d calls", v, calls)
	}
}
