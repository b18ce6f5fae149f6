package twohot

// Equivalence and physics suite for the hierarchical block-timestep
// integrator (Config.BlockSteps).
//
//   - A block-step run whose particles all land on rung 0 — either because
//     the hierarchy has a single level or because the displacement criterion
//     puts everyone there — must reproduce the global-step run BIT FOR BIT:
//     same positions, momenta and epochs after every step and after the
//     closing synchronization.
//   - A genuinely multi-rung run must stay physical (finite, periodic
//     positions), must actually occupy several rungs, must reuse clean
//     subtrees in its partial substeps, and must track the global-step run
//     to within the truncation error of the coarse rungs.
//   - Both hold for the TreePM composite, whose block steps kick the mesh
//     long range on the base step: one mesh solve per block (and per
//     Synchronize), the partial substeps solving the short range alone.

import (
	"math"
	"testing"

	"twohot/internal/core"
)

// maxRung is the finest rung the simulation's last block occupied (-1 when the
// stepper is not a block engine or no block has run).
func maxRung(s *Simulation) int { return len(s.RungHistogram()) - 1 }

// blockConfig is smallConfig tuned so a handful of steps finishes quickly
// under -race while still exercising the periodic tree path.
func blockConfig() Config {
	cfg := smallConfig()
	cfg.ZInit = 19
	cfg.ZFinal = 9
	cfg.NSteps = 4
	return cfg
}

// runSim generates ICs and runs the configured number of steps.
func runSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sim
}

func assertBitIdentical(t *testing.T, name string, ref, got *Simulation) {
	t.Helper()
	if ref.A != got.A || ref.AMom != got.AMom || ref.StepCount != got.StepCount {
		t.Fatalf("%s: epochs differ: A %v/%v AMom %v/%v steps %d/%d",
			name, ref.A, got.A, ref.AMom, got.AMom, ref.StepCount, got.StepCount)
	}
	for i := range ref.P.Pos {
		if ref.P.Pos[i] != got.P.Pos[i] || ref.P.Mom[i] != got.P.Mom[i] {
			t.Fatalf("%s: particle %d differs:\n  pos %v vs %v\n  mom %v vs %v",
				name, i, ref.P.Pos[i], got.P.Pos[i], ref.P.Mom[i], got.P.Mom[i])
		}
	}
}

func TestBlockStepAllRungZeroMatchesGlobal(t *testing.T) {
	checkAllRungZeroMatchesGlobal(t, blockConfig())
}

// TestBlockStepTreePMAllRungZeroMatchesGlobal: an all-rung-0 TreePM block
// kicks the long range it split off over the same factor as the short range
// (every momentum epoch is the block's), so it is the global step bit for
// bit.
func TestBlockStepTreePMAllRungZeroMatchesGlobal(t *testing.T) {
	cfg := blockConfig()
	cfg.Solver = SolverTreePM
	checkAllRungZeroMatchesGlobal(t, cfg)
}

func checkAllRungZeroMatchesGlobal(t *testing.T, base Config) {
	t.Helper()
	ref := runSim(t, base)

	// BlockSteps=1: a single-level hierarchy is definitionally one substep.
	single := base
	single.BlockSteps = 1
	assertBitIdentical(t, "blocksteps=1", ref, runSim(t, single))

	// BlockSteps=4 with a displacement limit so loose nobody leaves rung 0:
	// the multi-rung machinery must collapse to the global step.
	loose := base
	loose.BlockSteps = 4
	loose.RungDisplacementFrac = 1e12
	got := runSim(t, loose)
	if maxRung(got) != 0 {
		t.Fatalf("loose criterion left the finest occupied rung at %d, want 0", maxRung(got))
	}
	assertBitIdentical(t, "blocksteps=4/loose", ref, got)
}

// TestRungHistogramOnlyWhenBlockStepping pins the observable contract of
// StepInfo.Rungs and RungHistogram: nil for a global-timestep run
// (block_steps 0), although its engine is a one-level block, and a
// histogram of every particle for block_steps 1 and 3.
func TestRungHistogramOnlyWhenBlockStepping(t *testing.T) {
	for _, levels := range []int{0, 1, 3} {
		cfg := blockConfig()
		cfg.BlockSteps = levels
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seen [][]int
		sim.AddObserver(ObserverFuncs{Step: func(info StepInfo) { seen = append(seen, info.Rungs) }})
		if err := sim.GenerateICs(); err != nil {
			t.Fatal(err)
		}
		if err := sim.StepOnce(0.05); err != nil {
			t.Fatal(err)
		}
		hist := sim.RungHistogram()
		if len(seen) != 1 {
			t.Fatalf("block_steps %d: %d step notifications, want 1", levels, len(seen))
		}
		if levels == 0 {
			if hist != nil || seen[0] != nil {
				t.Fatalf("block_steps 0: rung histogram %v, step info %v, want nil", hist, seen[0])
			}
			continue
		}
		total := 0
		for _, c := range hist {
			total += c
		}
		if total != sim.NumParticles() || len(hist) > levels || len(seen[0]) != len(hist) {
			t.Fatalf("block_steps %d: rung histogram %v, step info %v, for %d particles",
				levels, hist, seen[0], sim.NumParticles())
		}
	}
}

func TestBlockStepMultiRung(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rung integration is covered by the full run")
	}
	if _, long := checkMultiRung(t, blockConfig()); long != 0 {
		t.Errorf("the tree solver returned a long range on %d solves, want none", long)
	}
}

// TestBlockStepTreePMMultiRung pins the split integrator: a multi-rung TreePM
// run does exactly one mesh solve per block (its fully active first substep)
// plus one for the closing Synchronize, and still tracks the global run.
func TestBlockStepTreePMMultiRung(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rung integration is covered by the full run")
	}
	cfg := blockConfig()
	cfg.Solver = SolverTreePM
	solves, long := checkMultiRung(t, cfg)
	if want := cfg.NSteps + 1; long != want {
		t.Errorf("%d mesh solves in %d blocks and a Synchronize, want %d", long, cfg.NSteps, want)
	}
	if solves <= long {
		t.Errorf("%d solves, %d of them with the mesh: no short-range-only substep ran", solves, long)
	}
}

// checkMultiRung runs base as a three-level block-stepped run, checks it
// against base's global run and returns the number of force solves and of
// those that returned a long range (Result.Long), Synchronize included.
func checkMultiRung(t *testing.T, base Config) (solves, long int) {
	t.Helper()
	ref := runSim(t, base)

	cfg := base
	cfg.BlockSteps = 3
	// A displacement limit inside the IC velocity spread: most particles
	// stay on rung 0 (clean, reusable), the fast tail populates the finer
	// rungs — the regime the subsystem exists for.
	cfg.RungDisplacementFrac = 0.01
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	sim.AddObserver(ObserverFuncs{Force: func(res *core.Result) {
		solves++
		if res.Long != nil {
			long++
		}
	}})
	aFinal := 1 / (1 + cfg.ZFinal)
	dlnA := math.Log(aFinal/sim.A) / float64(cfg.NSteps)

	reusedCells := 0
	prunedSubtrees := int64(0)
	for stp := 0; stp < cfg.NSteps; stp++ {
		if err := sim.StepOnce(dlnA); err != nil {
			t.Fatal(err)
		}
		// LastForce belongs to the block's final substep — a partial one
		// whenever several rungs are occupied, so it should have reused
		// clean subtrees and pruned inactive sink trees.
		reusedCells += sim.LastForce.Build.ReusedCells
		prunedSubtrees += sim.LastForce.Traversal.PrunedInactive
	}
	if err := sim.Synchronize(); err != nil {
		t.Fatal(err)
	}

	occupied := map[int8]bool{}
	for _, r := range sim.P.Rung {
		occupied[r] = true
	}
	if len(occupied) < 2 {
		t.Fatalf("displacement criterion produced a single rung (%v); tighten the test config", occupied)
	}
	if reusedCells == 0 {
		t.Error("no tree cells were reused across any partial substep")
	}
	if prunedSubtrees == 0 {
		t.Error("no sink subtrees were pruned in any partial substep")
	}

	// Physics: finite, in the box, and close to the global-step run.  The
	// frozen-source approximation perturbs at the truncation-error level of
	// the coarse rungs: correct runs of these configs deviate 0.0009–0.0016
	// mean interparticle separations, and a long range kicked on every
	// substep as well as on the base step deviates 0.02, so the bound sits
	// at about three times the correct runs.
	sep := cfg.BoxSize / float64(cfg.NGrid)
	maxDev := 0.0
	for i, p := range sim.P.Pos {
		for c := 0; c < 3; c++ {
			if math.IsNaN(p[c]) || p[c] < 0 || p[c] >= cfg.BoxSize {
				t.Fatalf("particle %d left the box: %v", i, p)
			}
		}
		d := p.Sub(ref.P.Pos[i])
		for c := 0; c < 3; c++ {
			// Periodic minimum-image distance.
			if d[c] > cfg.BoxSize/2 {
				d[c] -= cfg.BoxSize
			}
			if d[c] < -cfg.BoxSize/2 {
				d[c] += cfg.BoxSize
			}
		}
		if dev := d.Norm() / sep; dev > maxDev {
			maxDev = dev
		}
	}
	if maxDev > 0.005 {
		t.Errorf("block-step run deviates %.3f interparticle separations from the global run", maxDev)
	}
	t.Logf("rungs occupied: %d, reused cells: %d, pruned sink subtrees: %d, max deviation: %.4f sep",
		len(occupied), reusedCells, prunedSubtrees, maxDev)
	return solves, long
}

// TestTreePMMaskedSolveIsShortRange pins the solve contract the split
// integrator rests on: a masked TreePM solve returns the short range alone
// and no Long, a full solve returns Acc = short + long and the long part in
// Long, so for every active slot the masked Acc plus the full Long is the
// full Acc, bit for bit.
func TestTreePMMaskedSolveIsShortRange(t *testing.T) {
	cfg := blockConfig()
	cfg.Solver = SolverTreePM
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	fs := sim.Solver()
	full, err := fs.ActiveForces(sim.P, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Long == nil {
		t.Fatal("a full TreePM solve returned no long range")
	}
	active := make([]bool, sim.NumParticles())
	for i := range active {
		active[i] = i%3 == 0
	}
	masked, err := fs.ActiveForces(sim.P, active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Long != nil {
		t.Fatal("a masked TreePM solve returned a long range")
	}
	for i, a := range active {
		if !a {
			continue
		}
		if got := masked.Acc[i].Add(full.Long[i]); got != full.Acc[i] {
			t.Fatalf("particle %d: short %v + long %v = %v, full solve %v",
				i, masked.Acc[i], full.Long[i], got, full.Acc[i])
		}
	}
}

// TestBlockStepCheckpointGate pins the checkpoint contract of block-stepped
// runs: a multi-rung state carries per-particle momentum epochs the snapshot
// format cannot represent, so WriteCheckpoint must refuse until Synchronize
// collapses them — and succeed afterwards.
func TestBlockStepCheckpointGate(t *testing.T) {
	cfg := blockConfig()
	cfg.NSteps = 1
	cfg.BlockSteps = 3
	cfg.RungDisplacementFrac = 0.01
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	aFinal := 1 / (1 + cfg.ZFinal)
	dlnA := math.Log(aFinal/sim.A) / float64(cfg.NSteps)
	if err := sim.StepOnce(dlnA); err != nil {
		t.Fatal(err)
	}
	if maxRung(sim) == 0 {
		t.Skip("criterion produced a single rung; gate not exercisable")
	}
	path := t.TempDir() + "/mid.sdf"
	if err := sim.WriteCheckpoint(path); err == nil {
		t.Fatal("WriteCheckpoint accepted a multi-rung unsynchronized state")
	}
	if err := sim.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteCheckpoint(path); err != nil {
		t.Fatalf("WriteCheckpoint after Synchronize: %v", err)
	}
}

// TestBlockStepValidation pins the configuration gates.
func TestBlockStepValidation(t *testing.T) {
	cfg := blockConfig()
	cfg.BlockSteps = 2
	cfg.Solver = SolverPM
	if err := cfg.Validate(); err == nil {
		t.Error("block_steps with the PM solver must not validate")
	}
	// The treepm composite routes its short range through the tree and
	// inherits active-subset support, so block stepping is allowed.
	cfg = blockConfig()
	cfg.BlockSteps = 2
	cfg.Solver = SolverTreePM
	if err := cfg.Validate(); err != nil {
		t.Errorf("block_steps with the treepm solver must validate: %v", err)
	}
	// The distributed tree carries activity masks across the rank exchange
	// now, so the block/ranks composition is valid.
	cfg = blockConfig()
	cfg.BlockSteps = 2
	cfg.Ranks = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("block_steps with ranks > 1 must validate: %v", err)
	}
	cfg = blockConfig()
	cfg.BlockSteps = 64
	if err := cfg.Validate(); err == nil {
		t.Error("block_steps beyond the rung cap must not validate")
	}
	cfg = blockConfig()
	cfg.RungDisplacementFrac = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative rung_displacement_frac must not validate")
	}
}
