package step

import (
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

// TestBlockWorkDecay pins the rung-aware work-decay satellite: after a
// multi-rung block, the work weights of particles on coarse rungs (long
// inactive, stale weights) are pulled toward the mean by
// WorkDecay*(1-1/Span(r)), while finest-rung weights are untouched; with
// WorkDecay 0 or a single-rung block, no weight changes at all.
func TestBlockWorkDecay(t *testing.T) {
	par := testParams(t)
	const n = 32
	const dlnA = 0.05

	run := func(decay float64, frac float64, spread bool) (*particle.Set, *fakeForcer) {
		set := testSet(n)
		b := NewBlock(par, 1e6, 1.0, 4, frac)
		b.WorkDecay = decay
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
	set, f := run(0.5, 1.0, true)
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

	// WorkDecay 0: weights stay exactly what the last scatter left.
	set0, _ := run(0, 1.0, true)
	if maxRung(set0) == 0 {
		t.Fatal("criterion produced a single rung in the no-decay run")
	}
	for i := range raw {
		if set0.Work[i] != raw[i] {
			t.Fatalf("WorkDecay=0 changed particle %d work: %g vs %g", i, set0.Work[i], raw[i])
		}
	}

	// Single-rung block (loose criterion): decay must be a no-op even when
	// enabled — this is part of the all-rung-0 bit-identity contract.
	set1, _ := run(0.5, 1e12, false)
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

// TestNewEngine pins the one engine choice every stepping loop makes — the
// global leapfrog for 0 levels, the block engine otherwise — and that the
// separation the block engine derives from a particle count is, for lattice
// loads, bit for bit the box/NGrid a Config spells (math.Cbrt is exact on
// perfect cubes), so a single-process run and a rank world assign the same
// rungs.
func TestNewEngine(t *testing.T) {
	par := testParams(t)
	if g, ok := NewEngine(par, 64, 512, 0, 0.05).(*Global); !ok || g.BoxSize != 64 {
		t.Fatalf("0 levels: got %#v, want the global leapfrog on the 64 box", g)
	}
	for _, box := range []float64{1, 64, 100, 128.7} {
		for nGrid := 2; nGrid <= 64; nGrid++ {
			b, ok := NewEngine(par, box, nGrid*nGrid*nGrid, 3, 0.05).(*Block)
			if !ok || b.Levels != 3 || b.DisplacementFrac != 0.05 || b.BoxSize != box {
				t.Fatalf("3 levels: got %#v", b)
			}
			if want := box / float64(nGrid); b.Sep != want {
				t.Fatalf("box %g n_grid %d: Sep %v, want box/n_grid = %v", box, nGrid, b.Sep, want)
			}
		}
	}
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
