package traverse

// Equivalence suite for the list-inheriting traversal: ForcesForAll must
// reproduce the (now test-only) forcesForAllLegacy oracle bit for bit —
// accelerations, kernel sums and
// every interaction counter — across MAC types, periodic/non-periodic
// configurations, background subtraction, softening kernels and worker
// counts.  This mirrors the PR-1 methodology for the parallel tree build: the
// legacy path stays in the tree as the reference oracle, and CI runs this
// suite under -race.

import (
	"fmt"
	"math/rand"
	"testing"

	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// equivCase is one traversal configuration of the equivalence grid.
type equivCase struct {
	name    string
	rhoBar  float64 // background subtraction when > 0
	lattice bool    // run over latticeTree instead of equivTrees
	cfg     Config
}

func equivCases() []equivCase {
	return []equivCase{
		{
			name: "abs/open/none",
			cfg:  Config{MAC: MACAbsoluteError, AccTol: 1e-4, Kernel: softening.None},
		},
		{
			name: "bh/open/plummer",
			cfg:  Config{MAC: MACBarnesHut, Theta: 0.7, Kernel: softening.Plummer, Eps: 0.01},
		},
		{
			name: "abs/open/spline",
			cfg:  Config{MAC: MACAbsoluteError, AccTol: 3e-4, Kernel: softening.Spline, Eps: 0.02},
		},
		{
			name: "abs/periodic-ws1/dehnen",
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.DehnenK1, Eps: 0.02,
				Periodic: true, BoxSize: 1, WS: 1},
		},
		{
			name:   "abs/periodic-ws1-bg/plummer",
			rhoBar: 1,
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01,
				Periodic: true, BoxSize: 1, WS: 1},
		},
		{
			name:   "bh/periodic-ws1-bg/none",
			rhoBar: 1,
			cfg: Config{MAC: MACBarnesHut, Theta: 0.6, Kernel: softening.None,
				Periodic: true, BoxSize: 1, WS: 1},
		},
		{
			name:   "abs/periodic-ws2-lattice-bg/plummer",
			rhoBar: 1,
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01,
				Periodic: true, BoxSize: 1, WS: 2, LatticeOrder: 2},
		},
		// TreePM short-range mode: the rcut pruning and split damping must be
		// applied identically by both paths.  The cutoff is chosen so the
		// walk genuinely prunes (rcut well inside the box) while plenty of
		// undecided cells cross the cutoff band at every sink level.
		{
			name: "abs/periodic-ws1-split/plummer",
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01,
				Periodic: true, BoxSize: 1, WS: 1, SplitRS: 0.04},
		},
		// The production TreePM kernel: pairs inside the compact support go
		// through softening.Factors, the rest take the inline Newtonian path.
		{
			name: "abs/periodic-ws1-split/dehnen",
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.DehnenK1, Eps: 0.02,
				Periodic: true, BoxSize: 1, WS: 1, SplitRS: 0.04},
		},
		{
			name: "bh/open-split/none",
			cfg: Config{MAC: MACBarnesHut, Theta: 0.6, Kernel: softening.None,
				SplitRS: 0.05, SplitRCut: 0.2},
		},
		// Sinks on an unperturbed lattice sit exactly on the corners of
		// their own and their neighbours' background boxes, so the corner
		// sums hit the safeLog/safeAtan guards on corners the boxes share.
		{
			name:    "abs/periodic-ws1-bg-lattice/none",
			rhoBar:  1,
			lattice: true,
			cfg: Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.None,
				Periodic: true, BoxSize: 1, WS: 1},
		},
	}
}

// latticeTree builds an unperturbed 8^3 lattice whose points are corners of
// the tree's cells at every level down to the leaves.
func latticeTree(t *testing.T, rhoBar float64) map[string]*tree.Tree {
	t.Helper()
	const side = 8
	var pos []vec.V3
	var mass []float64
	for i := 0; i < side*side*side; i++ {
		pos = append(pos, vec.V3{float64(i/(side*side)) / side, float64(i/side%side) / side, float64(i%side) / side})
		mass = append(mass, 1.0/(side*side*side))
	}
	tr, err := tree.Build(pos, mass, vec.CubeBox(vec.V3{}, 1), tree.Options{Order: 4, LeafSize: 8, RhoBar: rhoBar})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*tree.Tree{"lattice": tr}
}

// equivTrees builds the particle distributions the grid runs over: a uniform
// random box and a heavily clustered snapshot (deep, uneven tree).
func equivTrees(t *testing.T, rhoBar float64) map[string]*tree.Tree {
	t.Helper()
	out := map[string]*tree.Tree{}

	n := 1800
	if testing.Short() {
		n = 700 // keep the -race CI run fast; the full grid runs without -short
	}
	rng := rand.New(rand.NewSource(4))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 1.0 / float64(n)
	}
	box := vec.CubeBox(vec.V3{}, 1)
	tr, err := tree.Build(pos, mass, box, tree.Options{Order: 4, LeafSize: 8, RhoBar: rhoBar})
	if err != nil {
		t.Fatal(err)
	}
	out["uniform"] = tr

	nc := 1500
	if testing.Short() {
		nc = 600
	}
	set := particle.Clustered(nc, 9)
	cp := make([]vec.V3, len(set.Pos))
	cm := make([]float64, len(set.Mass))
	copy(cp, set.Pos)
	total := 0.0
	for _, m := range set.Mass {
		total += m
	}
	for i, m := range set.Mass {
		// Normalize to unit total mass so the absolute tolerances of the
		// cases above mean the same thing as for the uniform distribution.
		cm[i] = m / total
	}
	tr2, err := tree.Build(cp, cm, box, tree.Options{Order: 4, LeafSize: 8, RhoBar: rhoBar})
	if err != nil {
		t.Fatal(err)
	}
	out["clustered"] = tr2
	return out
}

func TestListInheritMatchesLegacyGather(t *testing.T) {
	for _, tc := range equivCases() {
		trees := equivTrees
		if tc.lattice {
			trees = latticeTree
		}
		for dist, tr := range trees(t, tc.rhoBar) {
			w := NewWalker(tr, tc.cfg)
			refAcc, refPot, refCnt := w.forcesForAllLegacy(2)
			legacyWalks := w.LastStats.ReplicaWalks
			workerCounts := []int{1, 2, 4}
			if testing.Short() {
				workerCounts = []int{1, 3}
			}
			for _, workers := range workerCounts {
				name := fmt.Sprintf("%s/%s/workers=%d", tc.name, dist, workers)
				acc, pot, cnt := w.ForcesForAll(workers)
				if cnt != refCnt {
					t.Errorf("%s: counters differ: %+v vs %+v", name, cnt, refCnt)
				}
				bad := 0
				for i := range acc {
					if acc[i] != refAcc[i] || pot[i] != refPot[i] {
						bad++
						if bad <= 3 {
							t.Errorf("%s: particle %d differs: acc %v vs %v, pot %v vs %v",
								name, i, acc[i], refAcc[i], pot[i], refPot[i])
						}
					}
				}
				if bad > 3 {
					t.Errorf("%s: %d particles differ in total", name, bad)
				}
				if w.LastStats.Groups != refCnt.SinkCells {
					t.Errorf("%s: stats groups %d, want %d", name, w.LastStats.Groups, refCnt.SinkCells)
				}
				if w.LastStats.ReplicaWalks > legacyWalks {
					t.Errorf("%s: replica walks %d exceed legacy %d",
						name, w.LastStats.ReplicaWalks, legacyWalks)
				}
				if tc.cfg.Periodic {
					if w.LastStats.ReplicaWalks >= legacyWalks {
						t.Errorf("%s: replica walks %d did not improve on legacy %d",
							name, w.LastStats.ReplicaWalks, legacyWalks)
					}
					if w.LastStats.InheritedItems == 0 {
						t.Errorf("%s: no items were inherited — the hierarchy is not reusing lists", name)
					}
				}
			}
		}
	}
}

// TestInheritDeterministicAcrossWorkerCounts double-checks that the parallel
// task split itself cannot perturb results, independently of the legacy
// comparison above.
func TestInheritDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := equivTrees(t, 1)["clustered"]
	cfg := Config{MAC: MACAbsoluteError, AccTol: 1e-4, Kernel: softening.Plummer, Eps: 0.01,
		Periodic: true, BoxSize: 1, WS: 1}
	w := NewWalker(tr, cfg)
	refAcc, refPot, refCnt := w.ForcesForAll(1)
	for _, workers := range []int{2, 3, 8} {
		acc, pot, cnt := w.ForcesForAll(workers)
		if cnt != refCnt {
			t.Errorf("workers=%d: counters differ", workers)
		}
		for i := range acc {
			if acc[i] != refAcc[i] || pot[i] != refPot[i] {
				t.Fatalf("workers=%d: particle %d differs", workers, i)
			}
		}
	}
}
