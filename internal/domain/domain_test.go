package domain

import (
	"math/rand"
	"testing"

	"twohot/internal/comm"
	"twohot/internal/keys"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

func clustered(n int, seed int64) *particle.Set {
	rng := rand.New(rand.NewSource(seed))
	set := particle.New(n)
	for i := 0; i < n; i++ {
		var p vec.V3
		if i%2 == 0 {
			p = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		} else {
			p = vec.V3{
				vec.PeriodicWrap(0.3+0.05*rng.NormFloat64(), 1),
				vec.PeriodicWrap(0.7+0.05*rng.NormFloat64(), 1),
				vec.PeriodicWrap(0.2+0.05*rng.NormFloat64(), 1),
			}
		}
		set.Append(p, vec.V3{}, 1, int64(i))
	}
	return set
}

func TestDecomposePreservesParticlesAndBalances(t *testing.T) {
	const nRanks = 3
	const n = 9000
	all := clustered(n, 1)
	box := vec.CubeBox(vec.V3{}, 1)

	world := comm.NewWorld(nRanks)
	perRank := make([]*particle.Set, nRanks)
	chunk := (n + nRanks - 1) / nRanks
	for r := 0; r < nRanks; r++ {
		perRank[r] = particle.New(chunk)
		for i := r * chunk; i < (r+1)*chunk && i < n; i++ {
			perRank[r].AppendFrom(all, i)
		}
	}
	decomps := make([]*Decomposition, nRanks)
	err := world.Run(func(r *comm.Rank) error {
		d, err := Decompose(r, perRank[r.ID], box, Options{Curve: keys.Hilbert})
		if err != nil {
			return err
		}
		decomps[r.ID] = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every particle still exists exactly once (check by ID) and lives on
	// the rank that owns its key.
	seen := map[int64]bool{}
	total := 0
	for r := 0; r < nRanks; r++ {
		total += perRank[r].Len()
		d := decomps[r]
		for i := 0; i < perRank[r].Len(); i++ {
			id := perRank[r].ID[i]
			if seen[id] {
				t.Fatalf("particle %d duplicated", id)
			}
			seen[id] = true
			if owner := d.OwnerOfPosition(perRank[r].Pos[i]); owner != r {
				t.Fatalf("particle %d on rank %d but owned by %d", id, r, owner)
			}
		}
	}
	if total != n {
		t.Fatalf("particles lost: %d of %d", total, n)
	}
	// Balance within a factor of 2 of the mean for this clustered input.
	for r := 0; r < nRanks; r++ {
		frac := float64(perRank[r].Len()) * nRanks / float64(n)
		if frac < 0.4 || frac > 2.0 {
			t.Errorf("rank %d holds %.2fx the mean load", r, frac)
		}
	}
	// Splitters must agree across ranks.
	for r := 1; r < nRanks; r++ {
		for i := range decomps[0].Splitters {
			if decomps[r].Splitters[i] != decomps[0].Splitters[i] {
				t.Fatal("ranks disagree on the splitters")
			}
		}
	}
}

func TestImbalanceMetric(t *testing.T) {
	world := comm.NewWorld(2)
	err := world.Run(func(r *comm.Rank) error {
		count := 100
		if r.ID == 1 {
			count = 300
		}
		imb, err := imbalance(r, count)
		if err != nil {
			return err
		}
		if imb < 1.49 || imb > 1.51 {
			t.Errorf("imbalance %.2f, want 1.5", imb)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitWeightedBalancesSkewedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Heavily skewed weights: a flat floor plus a few hot spots, the shape of
	// per-particle interaction counts in a clustered snapshot.
	n := 5000
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	for h := 0; h < 5; h++ {
		c := rng.Intn(n)
		for i := c; i < c+200 && i < n; i++ {
			weights[i] += 50
		}
	}
	for _, parts := range []int{2, 4, 7, 16} {
		bounds := SplitWeighted(weights, parts)
		if len(bounds) != parts-1 {
			t.Fatalf("parts=%d: got %d bounds", parts, len(bounds))
		}
		lo := 0
		for _, b := range bounds {
			if b < lo || b > n {
				t.Fatalf("parts=%d: bound %d out of order", parts, b)
			}
			lo = b
		}
		got := ShardImbalance(weights, bounds)
		uniformBounds := make([]int, parts-1)
		for k := 1; k < parts; k++ {
			uniformBounds[k-1] = k * n / parts
		}
		uniform := ShardImbalance(weights, uniformBounds)
		t.Logf("parts=%d: weighted imbalance %.4f, equal-count %.4f", parts, got, uniform)
		if got > uniform {
			t.Errorf("parts=%d: weighted split (%.4f) worse than equal-count (%.4f)", parts, got, uniform)
		}
		// The greedy quantile walk can overshoot by at most the largest
		// single weight per shard.
		maxW := 0.0
		total := 0.0
		for _, w := range weights {
			if w > maxW {
				maxW = w
			}
			total += w
		}
		if got > 1+float64(parts)*maxW/(total/float64(parts)) {
			t.Errorf("parts=%d: imbalance %.4f beyond the greedy bound", parts, got)
		}
	}
}

func TestSplitWeightedDegenerateInputs(t *testing.T) {
	if b := SplitWeighted(nil, 4); len(b) != 3 {
		t.Errorf("nil weights: got %v", b)
	}
	if b := SplitWeighted([]float64{0, 0, 0, 0}, 2); len(b) != 1 || b[0] != 2 {
		t.Errorf("all-zero weights should fall back to equal counts: got %v", b)
	}
	if b := SplitWeighted([]float64{5}, 3); len(b) != 2 {
		t.Errorf("single item: got %v", b)
	}
	if b := SplitWeighted([]float64{1, 2, 3}, 1); b != nil {
		t.Errorf("parts=1: got %v", b)
	}
	// One giant weight: every boundary lands right after it or at the ends.
	b := SplitWeighted([]float64{1, 1, 1000, 1, 1}, 2)
	if b[0] != 3 {
		t.Errorf("giant weight: boundary at %d, want 3", b[0])
	}
	if ShardImbalance([]float64{1, 1, 1, 1}, []int{2}) != 1 {
		t.Errorf("even split should report imbalance 1")
	}
}

func TestMaskWeights(t *testing.T) {
	w := []float64{3, 1, 4, 1, 5, 9}
	active := []bool{true, false, true, false, false, true}
	got := MaskWeights(nil, w, active)
	want := []float64{3, 0, 4, 0, 0, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %g, want %g", i, got[i], want[i])
		}
	}
	// A pooled destination is reused in place when large enough.
	dst := make([]float64, 8)
	got2 := MaskWeights(dst, w, active)
	if &got2[0] != &dst[0] || len(got2) != len(w) {
		t.Error("sufficiently large destination was not reused")
	}
	// Missing weights read as one unit per active item.
	uniform := MaskWeights(nil, nil, active)
	for i, a := range active {
		if want := map[bool]float64{true: 1}[a]; uniform[i] != want {
			t.Fatalf("nil weights, item %d: got %g, want %g", i, uniform[i], want)
		}
	}
	// Shard boundaries over masked weights land where the active work is:
	// with all the active weight in the back half, the two-shard boundary
	// must not sit at the midpoint.
	masked := MaskWeights(nil, []float64{5, 5, 0, 0, 6, 4}, []bool{false, false, false, false, true, true})
	b := SplitWeighted(masked, 2)
	if b[0] != 5 {
		t.Errorf("masked split boundary at %d, want 5", b[0])
	}
}

// imbalance returns the ratio of the largest to the mean particle count
// across ranks (1.0 is perfect balance).
func imbalance(r *comm.Rank, localCount int) (float64, error) {
	maxC, err := r.AllreduceFloat64(float64(localCount), "max")
	if err != nil {
		return 0, err
	}
	sum, err := r.AllreduceFloat64(float64(localCount), "sum")
	if err != nil {
		return 0, err
	}
	mean := sum / float64(r.N())
	if mean == 0 {
		return 1, nil
	}
	return maxC / mean, nil
}
