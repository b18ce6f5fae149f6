package core

import (
	"math/rand"
	"testing"

	"twohot/internal/softening"
	"twohot/internal/vec"
)

// This file pins the persistent TreeSolver pipeline: incremental rebuilds and
// work-weighted shard scheduling must be invisible in every result bit, while
// the reuse bookkeeping (BuildStats, Result.Work) reports what happened.

func driftPositions(pos []vec.V3, sigma float64, box float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range pos {
		pos[i] = vec.V3{
			vec.PeriodicWrap(pos[i][0]+sigma*rng.NormFloat64(), box),
			vec.PeriodicWrap(pos[i][1]+sigma*rng.NormFloat64(), box),
			vec.PeriodicWrap(pos[i][2]+sigma*rng.NormFloat64(), box),
		}
	}
}

func TestTreeSolverIncrementalStepsBitIdentical(t *testing.T) {
	pos, mass := randomCluster(2500, 31)
	cfg := TreeConfig{
		Order: 4, ErrTol: 1e-4,
		Kernel: softening.Plummer, Eps: 0.002,
		Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1,
		Workers: 3,
	}
	incCfg := cfg
	incCfg.Incremental = true

	fresh := NewTreeSolver(cfg) // rebuilt every step, the reference
	inc := NewTreeSolver(incCfg)

	var work []float64
	for step := 0; step < 4; step++ {
		if step > 0 {
			driftPositions(pos, 3e-6, 1, int64(step))
		}
		ref, err := forces(NewTreeSolver(cfg), pos, mass, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The persistent solvers: one plain, one incremental + work-fed.
		plain, err := forces(fresh, pos, mass, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := forces(inc, pos, mass, work)
		if err != nil {
			t.Fatal(err)
		}
		work = got.Work

		for name, res := range map[string]*Result{"persistent": plain, "incremental": got} {
			if res.Counters != ref.Counters {
				t.Fatalf("step %d %s: counters differ", step, name)
			}
			for i := range ref.Acc {
				if res.Acc[i] != ref.Acc[i] || res.Pot[i] != ref.Pot[i] {
					t.Fatalf("step %d %s: particle %d differs: acc %v vs %v",
						step, name, i, res.Acc[i], ref.Acc[i])
				}
			}
		}
		if plain.Build.Reused {
			t.Fatalf("step %d: non-incremental solver reused the previous order", step)
		}
		if step == 0 && got.Build.Reused {
			t.Fatal("first incremental solve cannot reuse anything")
		}
		if step > 0 {
			if !got.Build.Reused {
				t.Fatalf("step %d: incremental solver did not reuse the previous order", step)
			}
			if !got.Build.FastPath {
				t.Fatalf("step %d: near-static drift fell back to the radix sort (displaced %d)",
					step, got.Build.Displaced)
			}
			if got.Traversal.ShardImbalance < 1 {
				t.Fatalf("step %d: work-fed schedule did not report shard imbalance", step)
			}
		}
		// Work feedback must reproduce the counters when summed.
		sum := 0.0
		for _, v := range got.Work {
			sum += v
		}
		if want := float64(got.Counters.P2P + got.Counters.CellInteractions() + got.Counters.BgCubes); sum != want {
			t.Fatalf("step %d: sum(Work) = %v, want %v", step, sum, want)
		}
	}
}

func TestTreeSolverResetReuse(t *testing.T) {
	cfg := TreeConfig{Order: 2, ErrTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01, Incremental: true}
	s := NewTreeSolver(cfg)
	pos, mass := randomCluster(600, 7)
	if _, err := forces(s, pos, mass, nil); err != nil {
		t.Fatal(err)
	}
	s.ResetReuse()
	res, err := forces(s, pos, mass, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Build.Reused {
		t.Error("solve after ResetReuse still reused the dropped tree")
	}

	// A particle count change must silently disable the reuse, not corrupt
	// the build.
	pos2, mass2 := randomCluster(900, 8)
	res2, err := forces(s, pos2, mass2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Build.Reused {
		t.Error("reuse across a particle-count change")
	}
	ref, err := forces(NewTreeSolver(cfg), pos2, mass2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Acc {
		if res2.Acc[i] != ref.Acc[i] {
			t.Fatalf("particle %d differs after size change", i)
		}
	}
}
