package step

import (
	"fmt"
	"math"
	"testing"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

// fakeForcer returns constant tiny accelerations and per-particle work equal
// to the particle index, recording every call's active mask.
type fakeForcer struct {
	calls   int
	actives [][]bool
}

func (f *fakeForcer) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	f.calls++
	var cp []bool
	if active != nil {
		cp = append([]bool(nil), active...)
	}
	f.actives = append(f.actives, cp)
	n := p.Len()
	res := &core.Result{
		Acc:  make([]vec.V3, n),
		Pot:  make([]float64, n),
		Work: make([]float64, n),
	}
	for i := range res.Acc {
		res.Acc[i] = vec.V3{1e-9, 0, 0}
		res.Work[i] = float64(100 * (i + 1))
	}
	return res, nil
}

// maxRung is the finest rung assigned in the set — the per-particle
// integrator state lives in the set itself.
func maxRung(p *particle.Set) int {
	r := int8(0)
	for _, v := range p.Rung {
		r = max(r, v)
	}
	return int(r)
}

func testParams(t *testing.T) cosmo.Params {
	t.Helper()
	par, err := cosmo.ByName("planck2013")
	if err != nil {
		t.Fatal(err)
	}
	return par
}

// testSet builds n particles with momenta that put particle i on roughly
// rung i%levels under the given displacement criterion.
func testSet(n int) *particle.Set {
	set := particle.New(n)
	for i := 0; i < n; i++ {
		set.Append(
			vec.V3{float64(i) + 0.5, 0.5, 0.5},
			vec.V3{math.Pow(2, float64(i%4)) * 10, 0, 0},
			1, int64(i),
		)
	}
	return set
}

// TestBlockWorkDecay pins the rung-aware work decay's arithmetic: after a
// multi-rung block, the work weights of particles on coarse rungs (long
// inactive, stale weights) are pulled toward the mean by
// 0.5*(1-1/Span(r)), while finest-rung weights are untouched; after a
// single-rung block no weight changes at all.
func TestBlockWorkDecay(t *testing.T) {
	par := testParams(t)
	const n = 32
	const dlnA = 0.05

	run := func(frac float64, spread bool) (*particle.Set, *fakeForcer) {
		set := testSet(n)
		b := NewBlock(par, 1e6, 1.0, 4, frac)
		clk := &Clock{A: 0.05, AMom: 0.05}
		if spread {
			// Momenta engineered so particle i lands exactly on rung i%4:
			// the criterion compares limit/|mom| against dlnA/2^r.
			limit := frac * b.Sep * clk.A * clk.A * par.Hubble(clk.A)
			for i := range set.Mom {
				k := float64(i % 4)
				set.Mom[i] = vec.V3{0.999 * limit * math.Pow(2, k) / dlnA, 0, 0}
			}
		}
		f := &fakeForcer{}
		if _, err := b.Advance(f, set, clk, dlnA); err != nil {
			t.Fatal(err)
		}
		return set, f
	}

	// Momenta spread over four rungs; the forcer's work output is 100*(i+1),
	// so the post-scatter weights are known exactly and the decay's pull is
	// directly checkable.
	set, f := run(1.0, true)
	if maxRung(set) == 0 {
		t.Fatalf("criterion produced a single rung; momenta spread %v", set.Mom[:4])
	}
	sched := Schedule{MaxRung: maxRung(set)}
	if f.calls != sched.Substeps() {
		t.Fatalf("block ran %d solves, want %d", f.calls, sched.Substeps())
	}
	// Reference: the undecayed weights straight from the forcer.
	raw := make([]float64, n)
	mean := 0.0
	for i := range raw {
		raw[i] = float64(100 * (i + 1))
		mean += raw[i]
	}
	mean /= n
	decayedCoarse := false
	for i := 0; i < n; i++ {
		span := sched.Span(int(set.Rung[i]))
		want := raw[i]
		if span > 1 {
			alpha := 0.5 * (1 - 1/float64(span))
			want += alpha * (mean - want)
			if want != raw[i] {
				decayedCoarse = true
			}
		}
		if math.Abs(set.Work[i]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("particle %d (rung %d, span %d): work %g, want %g", i, set.Rung[i], span, set.Work[i], want)
		}
	}
	if !decayedCoarse {
		t.Fatal("no coarse-rung weight was decayed")
	}

	// Single-rung block (loose criterion): decay must be a no-op — this is
	// part of the all-rung-0 bit-identity contract.
	set1, _ := run(1e12, false)
	if maxRung(set1) != 0 {
		t.Fatal("loose criterion still assigned rungs")
	}
	for i := range raw {
		if set1.Work[i] != raw[i] {
			t.Fatalf("single-rung decay changed particle %d work: %g vs %g", i, set1.Work[i], raw[i])
		}
	}
}

// TestBlockCheckpointGate pins CheckpointReady: ready before any block, not
// ready while per-particle epochs diverge, ready again once they collapse.
func TestBlockCheckpointGate(t *testing.T) {
	par := testParams(t)
	b := NewBlock(par, 1e6, 1.0, 4, 1e-11)
	if err := b.CheckpointReady(0.05); err != nil {
		t.Fatalf("fresh engine not checkpoint-ready: %v", err)
	}
	set := testSet(16)
	f := &fakeForcer{}
	clk := &Clock{A: 0.05, AMom: 0.05}
	if _, err := b.Advance(f, set, clk, 0.05); err != nil {
		t.Fatal(err)
	}
	if maxRung(set) == 0 {
		t.Skip("criterion produced a single rung; gate not exercisable")
	}
	if err := b.CheckpointReady(clk.AMom); err == nil {
		t.Fatal("multi-rung state reported checkpoint-ready")
	}
	if _, err := b.Synchronize(f, set, clk); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckpointReady(clk.AMom); err != nil {
		t.Fatalf("synchronized state not checkpoint-ready: %v", err)
	}
}

// TestBlockRungHistogram checks the diagnostic surface observers consume.
func TestBlockRungHistogram(t *testing.T) {
	par := testParams(t)
	b := NewBlock(par, 1e6, 1.0, 4, 1e-11)
	if b.RungHistogram() != nil {
		t.Fatal("histogram before any block")
	}
	set := testSet(16)
	clk := &Clock{A: 0.05, AMom: 0.05}
	if _, err := b.Advance(&fakeForcer{}, set, clk, 0.05); err != nil {
		t.Fatal(err)
	}
	hist := b.RungHistogram()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != set.Len() {
		t.Fatalf("histogram sums to %d, want %d", total, set.Len())
	}
	if len(hist) != maxRung(set)+1 {
		t.Fatalf("histogram has %d rungs, want %d", len(hist), maxRung(set)+1)
	}
}

// TestScatterSubset pins Scatter's contract: a subset scatter must leave
// inactive slots untouched and nil Result arrays must not clobber anything.
func TestScatterSubset(t *testing.T) {
	set := testSet(4)
	for i := range set.Work {
		set.Work[i] = float64(i)
		set.Pot[i] = float64(10 + i)
	}
	res := &core.Result{Acc: make([]vec.V3, 4)}
	for i := range res.Acc {
		res.Acc[i] = vec.V3{float64(i), 0, 0}
	}
	active := []bool{true, false, true, false}
	Scatter(set, res, active)
	for i := range active {
		if active[i] && set.Acc[i] != res.Acc[i] {
			t.Fatalf("active slot %d not written", i)
		}
		if !active[i] && set.Acc[i] != (vec.V3{}) {
			t.Fatalf("inactive slot %d clobbered", i)
		}
		if set.Pot[i] != float64(10+i) || set.Work[i] != float64(i) {
			t.Fatalf("nil Result arrays clobbered slot %d", i)
		}
	}
}

// TestNewEngine pins the one engine every stepping loop builds — a
// one-level block (the global leapfrog) for 0 levels, the requested depth
// otherwise — and that the separation it derives from a particle count is,
// for lattice loads, bit for bit the box/NGrid a Config spells (math.Cbrt
// is exact on perfect cubes), so a single-process run and a rank world
// assign the same rungs.
func TestNewEngine(t *testing.T) {
	par := testParams(t)
	if b := NewEngine(par, 64, 512, 0, 0.05); b.Levels != 1 || b.BoxSize != 64 {
		t.Fatalf("0 levels: got %#v, want a one-level block on the 64 box", b)
	}
	for _, box := range []float64{1, 64, 100, 128.7} {
		for nGrid := 2; nGrid <= 64; nGrid++ {
			b := NewEngine(par, box, nGrid*nGrid*nGrid, 3, 0.05)
			if b.Levels != 3 || b.DisplacementFrac != 0.05 || b.BoxSize != box {
				t.Fatalf("3 levels: got %#v", b)
			}
			if want := box / float64(nGrid); b.Sep != want {
				t.Fatalf("box %g n_grid %d: Sep %v, want box/n_grid = %v", box, nGrid, b.Sep, want)
			}
		}
	}
}

// leapfrogReference is the global comoving leapfrog of Quinn et al. (1997)
// written out directly: every solve is full, every momentum is kicked from
// the clock's momentum epoch to the next half step and every position
// drifted across the full step.  It is the test oracle the one-level Block
// is pinned against bit for bit.
type leapfrogReference struct {
	Par     cosmo.Params
	BoxSize float64
}

func (g leapfrogReference) Advance(f Forcer, p *particle.Set, clk *Clock, dlnA float64) (*core.Result, error) {
	aNow := clk.A
	aNext := aNow * math.Exp(dlnA)
	if aNext > 1 {
		aNext = 1
	}
	aHalfNext := math.Sqrt(aNow * aNext)

	res, err := f.ActiveForces(p, nil, nil)
	if err != nil {
		return nil, err
	}
	Scatter(p, res, nil)
	kick := g.Par.KickFactor(clk.AMom, aHalfNext)
	for i := range p.Mom {
		p.Mom[i] = p.Mom[i].Add(res.Acc[i].Scale(kick))
	}
	clk.AMom = aHalfNext
	drift := g.Par.DriftFactor(aNow, aNext)
	for i := range p.Pos {
		p.Pos[i] = vec.WrapV(p.Pos[i].Add(p.Mom[i].Scale(drift)), g.BoxSize)
	}
	clk.A = aNext
	return res, nil
}

func (g leapfrogReference) Synchronize(f Forcer, p *particle.Set, clk *Clock) (*core.Result, error) {
	if clk.AMom == clk.A {
		return nil, nil
	}
	res, err := f.ActiveForces(p, nil, nil)
	if err != nil {
		return nil, err
	}
	Scatter(p, res, nil)
	kick := g.Par.KickFactor(clk.AMom, clk.A)
	for i := range p.Mom {
		p.Mom[i] = p.Mom[i].Add(res.Acc[i].Scale(kick))
	}
	clk.AMom = clk.A
	return res, nil
}

// fieldForcer returns accelerations that depend on each particle's position,
// so a drift that differs in one bit shows in the next kick, and counts its
// solves and partial (non-nil) activity masks.
type fieldForcer struct{ calls, partial int }

func (f *fieldForcer) ActiveForces(p *particle.Set, active, moved []bool) (*core.Result, error) {
	f.calls++
	if active != nil {
		f.partial++
	}
	res := &core.Result{Acc: make([]vec.V3, p.Len())}
	for i, x := range p.Pos {
		res.Acc[i] = vec.V3{math.Sin(x[0]), math.Cos(x[1]), x[2] - 0.5*x[0]}.Scale(1e3)
	}
	return res, nil
}

// leapfrogSet is a small load with spread positions and momenta in a box of
// side 8.
func leapfrogSet() *particle.Set {
	set := particle.New(27)
	for i := 0; i < 27; i++ {
		fi := float64(i)
		set.Append(vec.V3{math.Mod(1.7*fi, 8), math.Mod(2.3*fi+0.5, 8), math.Mod(0.9*fi+1, 8)},
			vec.V3{math.Sin(fi), math.Cos(3 * fi), 0.1 * fi}, 1, int64(i))
	}
	return set
}

// sameState fails unless two runs agree bit for bit in positions, momenta
// and clock.
func sameState(t *testing.T, what string, got, want *particle.Set, gotClk, wantClk Clock) {
	t.Helper()
	if gotClk != wantClk {
		t.Fatalf("%s: clock %+v, leapfrog %+v", what, gotClk, wantClk)
	}
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] || got.Mom[i] != want.Mom[i] {
			t.Fatalf("%s: particle %d at %v mom %v, leapfrog %v mom %v",
				what, i, got.Pos[i], got.Mom[i], want.Pos[i], want.Mom[i])
		}
	}
}

// TestOneLevelEngineMatchesLeapfrog pins the engine a global-timestep run
// builds (NewEngine with 0 levels) against the leapfrog written out
// directly: bit for bit in positions, momenta and clock over several
// Advance calls of varying size and the closing Synchronize, and on both
// Synchronize calls of an engine that never advanced — a synchronized clock
// (no solve, nil result) and a trailing one (one full solve).
func TestOneLevelEngineMatchesLeapfrog(t *testing.T) {
	par := testParams(t)
	const box = 8.0
	ref := leapfrogReference{Par: par, BoxSize: box}

	eng := NewEngine(par, box, 27, 0, 0)
	got, want := leapfrogSet(), leapfrogSet()
	gotClk, wantClk := Clock{A: 0.05, AMom: 0.05}, Clock{A: 0.05, AMom: 0.05}
	fg, fw := &fieldForcer{}, &fieldForcer{}
	for k, dlnA := range []float64{0.1, 0.1, 0.25, 0.05} {
		if _, err := eng.Advance(fg, got, &gotClk, dlnA); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Advance(fw, want, &wantClk, dlnA); err != nil {
			t.Fatal(err)
		}
		sameState(t, fmt.Sprintf("advance %d", k), got, want, gotClk, wantClk)
	}
	if _, err := eng.Synchronize(fg, got, &gotClk); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Synchronize(fw, want, &wantClk); err != nil {
		t.Fatal(err)
	}
	sameState(t, "synchronize", got, want, gotClk, wantClk)
	if fg.calls != fw.calls || fg.partial != 0 {
		t.Fatalf("engine made %d solves (%d partial), leapfrog %d", fg.calls, fg.partial, fw.calls)
	}

	// A fresh engine on a synchronized clock: nothing to close.
	f := &fieldForcer{}
	set := leapfrogSet()
	clk := Clock{A: 0.2, AMom: 0.2}
	res, err := NewEngine(par, box, 27, 0, 0).Synchronize(f, set, &clk)
	if err != nil || res != nil || f.calls != 0 || clk != (Clock{A: 0.2, AMom: 0.2}) {
		t.Fatalf("unprimed synchronized clock: result %v, err %v, %d solves, clock %+v", res, err, f.calls, clk)
	}
	sameState(t, "unprimed synchronized", set, leapfrogSet(), clk, clk)

	// A fresh engine on a trailing clock (a restored checkpoint): one full
	// solve and the leapfrog's closing kick.
	got, want = leapfrogSet(), leapfrogSet()
	gotClk, wantClk = Clock{A: 0.2, AMom: 0.19}, Clock{A: 0.2, AMom: 0.19}
	fg, fw = &fieldForcer{}, &fieldForcer{}
	res, err = NewEngine(par, box, 27, 0, 0).Synchronize(fg, got, &gotClk)
	if err != nil || res == nil || fg.calls != 1 || fg.partial != 0 {
		t.Fatalf("unprimed trailing clock: result %v, err %v, %d solves (%d partial)", res, err, fg.calls, fg.partial)
	}
	if _, err := ref.Synchronize(fw, want, &wantClk); err != nil {
		t.Fatal(err)
	}
	sameState(t, "unprimed trailing", got, want, gotClk, wantClk)
}

// TestCheckpointDue is the cadence table: every k-th completed step, never
// the last (the result snapshot is that state), never without a cadence.
func TestCheckpointDue(t *testing.T) {
	var got []int
	for done := 1; done <= 6; done++ {
		if CheckpointDue(done, 2, 6) {
			got = append(got, done)
		}
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("every 2 of 6 steps: checkpoints after %v, want [2 4]", got)
	}
	if CheckpointDue(3, 0, 6) || CheckpointDue(6, 1, 6) {
		t.Error("a checkpoint is due without a cadence or after the last step")
	}
}

// constForcer hands back one precomputed constant-acceleration result, so an
// engine driven by it spends its time on rung assignment, kick, drift and
// scatter alone.
type constForcer struct{ res core.Result }

func (f *constForcer) ActiveForces(p *particle.Set, _, _ []bool) (*core.Result, error) {
	return &f.res, nil
}

// BenchmarkAdvance times one engine step of 32 768 particles under a
// constant force: at 0 levels (what a global-timestep run builds), 1 level,
// and 3 levels with momenta spread so every rung is occupied (a four-substep
// block).
func BenchmarkAdvance(b *testing.B) {
	par, err := cosmo.ByName("planck2013")
	if err != nil {
		b.Fatal(err)
	}
	const (
		n    = 32768
		box  = 64.0
		dlnA = 0.01
		frac = 0.1
		a0   = 0.5
	)
	sep := box / math.Cbrt(n)
	// One rung-r step may move a particle frac*sep: momenta from half to
	// four times the rung-0 limit land on rungs 0 to 2, a third on each.
	vRung0 := frac * sep * a0 * a0 * par.Hubble(a0) / dlnA
	for _, levels := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			set := particle.New(n)
			for i := 0; i < n; i++ {
				x := vec.V3{float64(i % 32), float64(i / 32 % 32), float64(i / 1024)}.Scale(sep)
				v := vRung0 * math.Pow(2, 3*float64(i%96)/96-1)
				set.Append(x, vec.V3{0.8 * v, 0.6 * v, 0}, 1, int64(i))
			}
			f := &constForcer{res: core.Result{Acc: make([]vec.V3, n)}}
			for i := range f.res.Acc {
				f.res.Acc[i] = vec.V3{1e-3, 0, 0}
			}
			eng := NewEngine(par, box, n, levels, frac)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				clk := Clock{A: a0, AMom: 0.995 * a0}
				if _, err := eng.Advance(f, set, &clk, dlnA); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
