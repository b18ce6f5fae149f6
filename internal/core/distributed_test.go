package core

import (
	"bytes"
	"testing"

	"twohot/internal/comm"
	"twohot/internal/domain"
	"twohot/internal/keys"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// verifyAgainstShared recomputes forces for a distributed result's particles
// with the shared-memory solver and returns the error statistics.
func verifyAgainstShared(out *particle.Set, cfg TreeConfig) (AccuracyStats, error) {
	res, err := NewTreeSolver(cfg).ActiveForces(out, nil, nil)
	if err != nil {
		return AccuracyStats{}, err
	}
	return CompareAccelerations(out.Acc, res.Acc), nil
}

func TestDistributedStepMatchesSharedSolver(t *testing.T) {
	pos, mass := randomCluster(3000, 9)
	set := particle.New(len(pos))
	for i := range pos {
		set.Append(pos[i], pos[i], mass[i], int64(i))
	}
	cfg := DistributedConfig{
		Tree: TreeConfig{
			Order: 4, ErrTol: 1e-4,
			Kernel: softening.Plummer, Eps: 0.002,
		},
		NRanks:         2,
		BranchExchange: "ring",
	}
	res, err := DistributedStep(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParticlesOut.Len() != set.Len() {
		t.Fatalf("particles lost: %d of %d", res.ParticlesOut.Len(), set.Len())
	}
	if res.Counters.P2P == 0 || res.Counters.CellInteractions() == 0 {
		t.Error("no interactions recorded")
	}
	if res.Timings.Total <= 0 || res.Timings.TreeBuild <= 0 {
		t.Error("timings not recorded")
	}

	stats, err := verifyAgainstShared(res.ParticlesOut, cfg.Tree)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("distributed vs shared: rms=%.3g max=%.3g; imbalance=%.2f; ABM batches=%d",
		stats.RMS, stats.Max, res.Imbalance, res.Comm.ABMBatches)
	if stats.RMS > 5e-4 {
		t.Errorf("distributed forces differ from the shared solver: rms %.3g", stats.RMS)
	}
}

func TestDistributedStepAllgatherExchange(t *testing.T) {
	pos, mass := randomCluster(1200, 10)
	set := particle.New(len(pos))
	for i := range pos {
		set.Append(pos[i], pos[i], mass[i], int64(i))
	}
	cfg := DistributedConfig{
		Tree:           TreeConfig{Order: 2, ErrTol: 1e-3, Kernel: softening.Plummer, Eps: 0.002},
		NRanks:         3,
		BranchExchange: "allgather",
	}
	res, err := DistributedStep(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := verifyAgainstShared(res.ParticlesOut, cfg.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RMS > 5e-3 {
		t.Errorf("allgather-exchange distributed forces differ: rms %.3g", stats.RMS)
	}
}

// TestRingExchangeMatchesAllgather pins the ring branch exchange — which
// forwards concatenated cell blocks and, on rank counts that are not a power
// of two, re-delivers cells a rank already holds — against the allgather
// exchange: every rank ends up with the same remote cells, byte for byte.
func TestRingExchangeMatchesAllgather(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		pos, mass := randomCluster(400*n, int64(20+n))
		box := vec.BoundingBox(pos).Cubed(1e-3)
		err := comm.NewWorld(n).Run(func(r *comm.Rank) error {
			my := particle.New(0)
			for i := r.ID; i < len(pos); i += n {
				my.Append(pos[i], vec.V3{}, mass[i], int64(i))
			}
			d, err := domain.Decompose(r, my, box, domain.Options{})
			if err != nil {
				return err
			}
			keyLo, keyHi := uint64(1)<<63, ^uint64(0)
			if r.ID > 0 {
				keyLo = d.Splitters[r.ID-1]
			}
			if r.ID < n-1 {
				keyHi = d.Splitters[r.ID]
			}
			remote := map[string]map[keys.Key][]byte{}
			for _, mode := range []string{"ring", "allgather"} {
				dt, err := tree.NewDistributed(append([]vec.V3(nil), my.Pos...), append([]float64(nil), my.Mass...),
					box, tree.Options{Order: 2, LeafSize: 8, Rank: r.ID}, keyLo, keyHi)
				if err != nil {
					return err
				}
				if err := exchangeBranches(r, dt, mode); err != nil {
					return err
				}
				remote[mode] = map[keys.Key][]byte{}
				for _, c := range dt.Cell {
					if c.Remote {
						remote[mode][c.Key] = dt.EncodeCells([]*tree.Cell{c})
					}
				}
			}
			if len(remote["ring"]) == 0 || len(remote["ring"]) != len(remote["allgather"]) {
				t.Errorf("n=%d rank %d: ring holds %d remote cells, allgather %d", n, r.ID, len(remote["ring"]), len(remote["allgather"]))
			}
			for k, want := range remote["allgather"] {
				if !bytes.Equal(remote["ring"][k], want) {
					t.Errorf("n=%d rank %d: remote cell %x differs between the exchanges", n, r.ID, uint64(k))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestRankSolverMatchesDistributedStep pins the claim that there is one rank
// solve: driving a RankSolver by hand on a channel world — what
// cluster.RankRun does for the life of a run — reproduces DistributedStep's
// ParticlesOut bit for bit, for a full solve and for an active-subset solve,
// with uneven work weights steering the decomposition.  The load is clustered,
// so rank boundaries fall inside populated cells and the shared upper cells
// above them hold more bodies than any one rank: the subset solve must not
// read those counts as local particle ranges (it used to, and panicked or
// pruned active sinks), and must give every active particle the full solve's
// bits.
func TestRankSolverMatchesDistributedStep(t *testing.T) {
	const nRanks = 3
	pos, mass := randomCluster(1500, 31)
	set := particle.New(len(pos))
	active := make([]bool, len(pos))
	for i := range pos {
		set.Append(pos[i], vec.V3{}, mass[i], int64(i))
		set.Work[i] = float64(1 + i%7)
		active[i] = i%3 != 0
	}
	cfg := DistributedConfig{
		Tree: TreeConfig{
			Order: 2, ErrTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01,
			Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1, Workers: 2,
		},
		NRanks:         nRanks,
		BranchExchange: "ring",
		UseWorkWeights: true,
	}
	fullAcc := map[int64]vec.V3{}
	for _, mask := range [][]bool{nil, active} {
		ref := set.Clone()
		stepCfg := cfg
		if mask != nil {
			ref.SetActive(mask)
			stepCfg.ActiveMask = true
		}
		res, err := DistributedStep(ref, stepCfg)
		if err != nil {
			t.Fatal(err)
		}

		chunks := make([]*particle.Set, nRanks)
		err = comm.NewWorld(nRanks).Run(func(r *comm.Rank) error {
			chunks[r.ID] = set.Chunk(r.ID, nRanks)
			var sub []bool
			if mask != nil {
				lo, hi := particle.ChunkBounds(set.Len(), r.ID, nRanks)
				sub = mask[lo:hi]
			}
			_, err := NewRankSolver(r, cfg).ActiveForces(chunks[r.ID], sub, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}

		out, i := res.ParticlesOut, 0
		for j, id := range out.ID {
			if mask == nil {
				fullAcc[id] = out.Acc[j]
			} else if mask[id] && out.Acc[j] != fullAcc[id] {
				t.Fatalf("active particle %d: subset solve gives %v, full solve %v", id, out.Acc[j], fullAcc[id])
			}
		}
		for _, c := range chunks {
			for j := 0; j < c.Len(); j, i = j+1, i+1 {
				if i >= out.Len() || c.ID[j] != out.ID[i] || c.Pos[j] != out.Pos[i] ||
					c.Acc[j] != out.Acc[i] || c.Pot[j] != out.Pot[i] || c.Work[j] != out.Work[i] {
					t.Fatalf("masked=%v: particle %d of the hand-driven ranks differs from DistributedStep", mask != nil, i)
				}
			}
		}
		if i != out.Len() {
			t.Fatalf("masked=%v: hand-driven ranks hold %d particles, DistributedStep %d", mask != nil, i, out.Len())
		}
	}
}
