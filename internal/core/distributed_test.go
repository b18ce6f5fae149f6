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

	stats, err := VerifyAgainstShared(res.ParticlesOut, cfg.Tree)
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
	stats, err := VerifyAgainstShared(res.ParticlesOut, cfg.Tree)
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
			d, err := domain.Decompose(r, my, box, domain.Options{}, nil)
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
