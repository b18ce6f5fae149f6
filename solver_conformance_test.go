package twohot

// Solver-conformance suite, driven by a Config table through NewForceSolver
// so the SolverKind dispatch itself is under test: every backend must fill
// the Result arrays the table pins, reject masks exactly when it lacks
// ActiveSubsets, solve identically after Reset, stay bit-identical across
// worker counts and conserve momentum at force-error level — plus a
// regression pin that the tree backend reproduces the pre-redesign inline
// solve-and-step path bit for bit.

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/particle"
	"twohot/internal/pm"
	"twohot/internal/step"
	"twohot/internal/vec"
)

// conformanceConfig is a tiny periodic box every backend can solve quickly
// (the direct backend pays brute-force Ewald per particle pair).
func conformanceConfig(kind SolverKind) Config {
	cfg := DefaultConfig()
	cfg.NGrid = 8
	cfg.BoxSize = 64
	cfg.ZInit = 19
	cfg.ZFinal = 4
	cfg.NSteps = 4
	cfg.ErrTol = 1e-4
	cfg.WS = 1
	cfg.LatticeOrder = 0
	cfg.PMGrid = 16
	cfg.Solver = kind
	return cfg
}

func conformanceSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	return sim
}

// solverCases is the Config table of the conformance suite: every backend
// NewForceSolver dispatches to, with the Result arrays each one fills (the
// TreePM short-range kernel sums are not the system potential, and the mesh
// and direct backends record no per-particle work).
var solverCases = []struct {
	name      string
	kind      SolverKind
	ranks     int
	pot, work bool
}{
	{"tree", SolverTree, 0, true, true},
	{"distributed tree", SolverTree, 2, true, true},
	{"treepm", SolverTreePM, 0, false, true},
	{"pm", SolverPM, 0, false, false},
	{"direct", SolverDirect, 0, true, false},
}

func TestSolverConformance(t *testing.T) {
	// Momentum-conservation tolerances (|Σ m·a| / Σ m·|a|): the pairwise
	// backends are antisymmetric to roundoff; the tree's sink-centred MAC
	// breaks action/reaction pairs at force-error level, and the treepm
	// composite's short range now runs through that MAC so it sits at the
	// tree tier (its brute-force pairwise oracle keeps the 1e-9 tier in
	// TestTreePMShortRangeOracle); the mesh backend sits in between (CIC +
	// spectral gradient asymmetries).
	momTol := map[SolverKind]float64{
		SolverTree:   2e-3,
		SolverTreePM: 2e-3,
		SolverPM:     1e-9,
		SolverDirect: 1e-9,
	}
	for _, tc := range solverCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := conformanceConfig(tc.kind)
			cfg.Ranks = tc.ranks
			cfg.Workers = 1
			if tc.kind == SolverDirect {
				if testing.Short() {
					t.Skip("the brute-force Ewald reference is slow")
				}
				// Every pair pays a full Ewald lattice sum (~1 ms); keep the
				// reference run at 64 particles.
				cfg.NGrid = 4
			}
			sim := conformanceSim(t, cfg)
			acc, err := sim.Accelerations()
			if err != nil {
				t.Fatal(err)
			}
			res := sim.LastForce

			if sim.Solver().Name() != string(tc.kind) {
				t.Errorf("solver name %q, want %q", sim.Solver().Name(), tc.kind)
			}
			if got := res.Pot != nil; got != tc.pot {
				t.Errorf("Result.Pot present %v, want %v", got, tc.pot)
			}
			if got := res.Work != nil; got != tc.work {
				t.Errorf("Result.Work present %v, want %v", got, tc.work)
			}

			// Momentum conservation: gravity is internal, so the
			// mass-weighted accelerations must sum to ~zero.
			var fSum vec.V3
			fScale := 0.0
			for i := range acc {
				fSum = fSum.Add(acc[i].Scale(sim.P.Mass[i]))
				fScale += sim.P.Mass[i] * acc[i].Norm()
			}
			if rel := fSum.Norm() / fScale; rel > momTol[tc.kind] {
				t.Errorf("net force %.3e of the force scale exceeds %.1e", rel, momTol[tc.kind])
			} else {
				t.Logf("net force: %.3e of the force scale", rel)
			}

			// Determinism across worker counts: bit-identical accelerations.
			wcfg := cfg
			wcfg.Workers = 3
			wsim := conformanceSim(t, wcfg)
			wacc, err := wsim.Accelerations()
			if err != nil {
				t.Fatal(err)
			}
			// Matched by ID: the distributed tree regroups each set by rank.
			idx := byID(wsim)
			for i, id := range sim.P.ID {
				if w := wacc[idx[id]]; acc[i] != w {
					t.Fatalf("particle %d: workers=1 and workers=3 disagree: %v vs %v", id, acc[i], w)
				}
			}
		})
	}
}

// TestSolverConstructorsShareOneContract is the half of the contract the one
// adapter owns, checked on every row of the Config table: a mask is accepted
// exactly when ActiveSubsets is claimed and otherwise draws the one error,
// and a Reset solver solves like a fresh one.
func TestSolverConstructorsShareOneContract(t *testing.T) {
	load := conformanceSim(t, conformanceConfig(SolverTree)).P
	for _, tc := range solverCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := conformanceConfig(tc.kind)
			cfg.Ranks = tc.ranks
			cfg.Workers = 2
			n := load.Len()
			if tc.kind == SolverDirect {
				n = 16 // every pair pays a full Ewald lattice sum (~1 ms)
			}
			mk := func() ForceSolver {
				fs, err := NewForceSolver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			}
			// A fresh copy of the first n particles per solve (the distributed
			// backend regroups its set in place).
			set := func() *particle.Set { return load.Chunk(0, load.Len()/n) }
			fs := mk()
			mask := make([]bool, n)
			mask[0] = true
			_, err := fs.ActiveForces(set(), mask, nil)
			if fs.Capabilities().ActiveSubsets {
				if err != nil {
					t.Errorf("ActiveForces rejected a mask despite ActiveSubsets: %v", err)
				}
			} else if want := "the " + fs.Name() + " solver does not support active-subset solves"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("mask without ActiveSubsets: got error %v, want %q", err, want)
			}

			fresh, err := mk().ActiveForces(set(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			fs.Reset()
			again, err := fs.ActiveForces(set(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Acc, fresh.Acc) || !reflect.DeepEqual(again.Pot, fresh.Pot) || !reflect.DeepEqual(again.Work, fresh.Work) {
				t.Error("Reset-then-solve differs from a fresh solver")
			}
		})
	}
}

// TestSolverLazyConstruction pins that New builds no solver or stepper (a
// pure tree run owns no PM solver, a pure PM run no tree solver), that the
// first use builds exactly the configured backend, and that NewForceSolver
// allocates no solve state.
func TestSolverLazyConstruction(t *testing.T) {
	for _, kind := range []SolverKind{SolverTree, SolverTreePM, SolverPM} {
		cfg := conformanceConfig(kind)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sim.solver != nil || sim.stepper != nil {
			t.Fatalf("%s: New constructed engine pieces eagerly", kind)
		}
		if name := sim.Solver().Name(); name != string(kind) {
			t.Fatalf("lazily built solver %q, want %q", name, kind)
		}
	}
	// Constructing a solver applies defaults and nothing else: no tree, no
	// mesh grid (a 256^3 grid alone is 128 MiB) and no staging buffer exists
	// before the first solve.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tc := range solverCases {
		big := conformanceConfig(tc.kind)
		big.Ranks = tc.ranks
		big.PMGrid = 256
		if _, err := NewForceSolver(big); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("constructing the solvers allocated %d bytes of solve state", grew)
	}
}

// TestTreePMShortRangeOracle pins the tree-walk short range of the treepm
// composite against the brute-force cell-list short range (the exact pairwise
// evaluation of the same truncated erfc-complement force).  With the MAC
// effectively disabled the walk opens every unpruned cell to particles, so
// the two differ only in accumulation order; and because the oracle is a
// pairwise antisymmetric sum, it must conserve momentum at the 1e-9 tier the
// composite itself (MAC-tier) no longer claims.
func TestTreePMShortRangeOracle(t *testing.T) {
	cfg := conformanceConfig(SolverTreePM)
	cfg.Workers = 2
	cfg.Kernel = "plummer" // the cell-list oracle only implements Plummer softening
	cfg.ErrTol = 1e-30     // MAC never accepts: the short range is pure truncated P2P
	sim := conformanceSim(t, cfg)
	acc, err := sim.Accelerations()
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the mesh long range plus the brute-force cell-list short
	// range of the same split.
	oracle := make([]vec.V3, sim.P.Len())
	ps := pm.NewSolver(cfg.pmOptions())
	ps.LongRange(sim.P.Pos, sim.P.Mass[0], oracle)
	ps.ShortRange(sim.P.Pos, sim.P.Mass[0], oracle)

	scale := 0.0
	for i := range acc {
		scale += oracle[i].Norm2()
	}
	scale = math.Sqrt(scale / float64(len(acc)))
	for i := range acc {
		if diff := acc[i].Sub(oracle[i]).Norm(); diff > 1e-10*scale {
			t.Fatalf("particle %d: composite (MAC off) deviates %.3e from the brute-force oracle", i, diff/scale)
		}
	}

	// The pairwise short range alone conserves momentum to roundoff.
	sr := make([]vec.V3, sim.P.Len())
	pm.NewSolver(cfg.pmOptions()).ShortRange(sim.P.Pos, sim.P.Mass[0], sr)
	var net vec.V3
	fScale := 0.0
	for i := range sr {
		net = net.Add(sr[i].Scale(sim.P.Mass[i]))
		fScale += sim.P.Mass[i] * sr[i].Norm()
	}
	if rel := net.Norm() / fScale; rel > 1e-9 {
		t.Errorf("pairwise short-range net force %.3e exceeds the 1e-9 tier", rel)
	}
}

// TestBlockStepsRejectIncapableSolver pins the capability gate on injection:
// block stepping demands active-subset support.
func TestBlockStepsRejectIncapableSolver(t *testing.T) {
	cfg := conformanceConfig(SolverTree)
	cfg.BlockSteps = 2
	direct, err := NewForceSolver(conformanceConfig(SolverDirect))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, WithSolver(direct)); err == nil {
		t.Fatal("New accepted block stepping with a solver lacking active-subset support")
	}
	tree, err := NewForceSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, WithSolver(tree)); err != nil {
		t.Fatalf("New rejected a capable injected solver: %v", err)
	}

	// The gate must also see block stepping that arrives via an injected
	// engine rather than Config.BlockSteps: a PM-configured simulation
	// handed a block stepper must fail at construction, not mid-run.
	pmCfg := conformanceConfig(SolverPM)
	sim, err := New(pmCfg)
	if err != nil {
		t.Fatal(err)
	}
	sep := pmCfg.BoxSize / float64(pmCfg.NGrid)
	blockEng := step.NewBlock(sim.Par, pmCfg.BoxSize, sep, 3, 0.01)
	if _, err := New(pmCfg, WithStepper(blockEng)); err == nil {
		t.Fatal("New accepted an injected block stepper over a solver lacking active-subset support")
	}
}

// TestTreeAdapterBitIdenticalToLegacyPath is the redesign's regression pin:
// stepping through the ForceSolver/Stepper engine must reproduce, bit for
// bit, the pre-redesign inline path — an eagerly built core.TreeSolver
// driven by the old StepOnce arithmetic (force solve, scatter, half-step
// kick, full-step drift) and the old closing Synchronize.
func TestTreeAdapterBitIdenticalToLegacyPath(t *testing.T) {
	cfg := conformanceConfig(SolverTree)
	sim := conformanceSim(t, cfg)

	// The legacy replica: the solver exactly as buildSolvers constructed it,
	// stepped by the old inline integrator over a clone of the same ICs.
	legacy := core.NewTreeSolver(core.TreeConfig{
		Order:                 cfg.Order,
		ErrTol:                cfg.ErrTol,
		MAC:                   cfg.macType(),
		Theta:                 cfg.Theta,
		Kernel:                cfg.kernel(),
		Eps:                   cfg.SofteningLength(),
		G:                     cosmo.G,
		Periodic:              true,
		BoxSize:               cfg.BoxSize,
		BackgroundSubtraction: cfg.BackgroundSubtraction,
		WS:                    cfg.WS,
		LatticeOrder:          cfg.LatticeOrder,
		Workers:               cfg.Workers,
		Incremental:           cfg.Incremental,
	})
	lp := sim.P.Clone()
	la, laMom := sim.A, sim.AMom

	legacySolve := func() []vec.V3 {
		res, err := legacy.ActiveForces(lp, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(lp.Acc, res.Acc)
		copy(lp.Pot, res.Pot)
		copy(lp.Work, res.Work)
		return res.Acc
	}

	aFinal := 1 / (1 + cfg.ZFinal)
	dlnA := math.Log(aFinal/la) / float64(cfg.NSteps)
	for stepNo := 0; stepNo < cfg.NSteps; stepNo++ {
		// New path.
		if err := sim.StepOnce(dlnA); err != nil {
			t.Fatal(err)
		}
		// Legacy path (the pre-redesign Simulation.StepOnce body).
		aNow := la
		aNext := aNow * math.Exp(dlnA)
		if aNext > 1 {
			aNext = 1
		}
		aHalfNext := math.Sqrt(aNow * aNext)
		acc := legacySolve()
		kick := sim.Par.KickFactor(laMom, aHalfNext)
		for i := range lp.Mom {
			lp.Mom[i] = lp.Mom[i].Add(acc[i].Scale(kick))
		}
		laMom = aHalfNext
		drift := sim.Par.DriftFactor(aNow, aNext)
		for i := range lp.Pos {
			lp.Pos[i] = vec.WrapV(lp.Pos[i].Add(lp.Mom[i].Scale(drift)), cfg.BoxSize)
		}
		la = aNext

		if sim.A != la || sim.AMom != laMom {
			t.Fatalf("step %d: epochs diverged: a %v/%v a_mom %v/%v", stepNo, sim.A, la, sim.AMom, laMom)
		}
		for i := range lp.Pos {
			if sim.P.Pos[i] != lp.Pos[i] || sim.P.Mom[i] != lp.Mom[i] {
				t.Fatalf("step %d particle %d: adapter path diverged from the legacy path:\n  pos %v vs %v\n  mom %v vs %v",
					stepNo, i, sim.P.Pos[i], lp.Pos[i], sim.P.Mom[i], lp.Mom[i])
			}
		}
	}

	// Closing synchronization (the pre-redesign Simulation.Synchronize body).
	if err := sim.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if laMom != la {
		acc := legacySolve()
		kick := sim.Par.KickFactor(laMom, la)
		for i := range lp.Mom {
			lp.Mom[i] = lp.Mom[i].Add(acc[i].Scale(kick))
		}
		laMom = la
	}
	for i := range lp.Mom {
		if sim.P.Mom[i] != lp.Mom[i] {
			t.Fatalf("synchronize: particle %d momentum diverged: %v vs %v", i, sim.P.Mom[i], lp.Mom[i])
		}
	}
}
