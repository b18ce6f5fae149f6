package traverse

import (
	"math/rand"
	"testing"

	"twohot/internal/domain"
	"twohot/internal/softening"
)

// This file covers the work-feedback scheduling additions: per-particle work
// recording (WorkOut) and the static work-weighted shard schedule (SinkWork).
// The shard schedule changes only which goroutine runs which task, so a
// weighted schedule must be bit-identical to the uniform-weight one a walker
// without SinkWork runs; the recorded work must reproduce the interaction
// counters when summed.

func workCfg() Config {
	return Config{MAC: MACAbsoluteError, AccTol: 1e-3, Kernel: softening.Plummer, Eps: 0.01,
		Periodic: true, BoxSize: 1, WS: 1}
}

func TestWorkOutSumsToCounters(t *testing.T) {
	tr := equivTrees(t, 1)["clustered"]
	w := NewWalker(tr, workCfg())
	w.WorkOut = make([]float64, len(tr.Pos))
	_, _, cnt := w.ForcesForAll(2)
	sum := 0.0
	for _, v := range w.WorkOut {
		sum += v
	}
	want := float64(cnt.P2P + cnt.CellInteractions() + cnt.BgCubes)
	if sum != want {
		t.Errorf("sum(WorkOut) = %v, want counters total %v", sum, want)
	}

	// The legacy oracle records the same per-particle work.
	legacy := NewWalker(tr, workCfg())
	legacy.WorkOut = make([]float64, len(tr.Pos))
	legacy.forcesForAllLegacy(2)
	for i := range w.WorkOut {
		if w.WorkOut[i] != legacy.WorkOut[i] {
			t.Fatalf("particle %d: inherit work %v, legacy work %v", i, w.WorkOut[i], legacy.WorkOut[i])
		}
	}
}

func TestWorkShardedScheduleBitIdentical(t *testing.T) {
	tr := equivTrees(t, 0)["clustered"]
	cfg := Config{MAC: MACAbsoluteError, AccTol: 1e-4, Kernel: softening.None}

	uniform := NewWalker(tr, cfg)
	refAcc, refPot, refCnt := uniform.ForcesForAll(4)

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		w := NewWalker(tr, cfg)
		w.SinkWork = make([]float64, len(tr.Pos))
		for i := range w.SinkWork {
			switch trial {
			case 0: // uniform weights
				w.SinkWork[i] = 1
			case 1: // realistic: skewed positive weights
				w.SinkWork[i] = 1 + 100*rng.Float64()*rng.Float64()
			default: // adversarial: zero and negative junk
				w.SinkWork[i] = float64(rng.Intn(3) - 1)
			}
		}
		for _, workers := range []int{2, 4, 7} {
			acc, pot, cnt := w.ForcesForAll(workers)
			if cnt != refCnt {
				t.Fatalf("trial %d workers=%d: counters differ", trial, workers)
			}
			for i := range acc {
				if acc[i] != refAcc[i] || pot[i] != refPot[i] {
					t.Fatalf("trial %d workers=%d: particle %d differs", trial, workers, i)
				}
			}
			if w.LastStats.ShardImbalance < 1 {
				t.Errorf("trial %d workers=%d: shard imbalance %v not recorded",
					trial, workers, w.LastStats.ShardImbalance)
			}
		}
	}

	// Without SinkWork the uniform-weight schedule reports no shard
	// imbalance.
	if uniform.LastStats.ShardImbalance != 0 {
		t.Errorf("uniform-weight schedule reported shard imbalance %v", uniform.LastStats.ShardImbalance)
	}
}

// TestWorkFeedbackImprovesShardBalance records the real per-particle work of
// a clustered traversal, then compares how well two contiguous 4-way splits
// of the sorted particle sequence balance that actual work: the equal-count
// split every weightless scheduler would pick, and the work-weighted split
// the feedback loop picks.  The work-fed split must not be worse.
func TestWorkFeedbackImprovesShardBalance(t *testing.T) {
	tr := equivTrees(t, 1)["clustered"]
	w := NewWalker(tr, workCfg())
	w.WorkOut = make([]float64, len(tr.Pos))
	w.ForcesForAll(2)
	work := append([]float64(nil), w.WorkOut...)

	const workers = 4
	uniformBounds := make([]int, workers-1)
	for k := 1; k < workers; k++ {
		uniformBounds[k-1] = k * len(work) / workers
	}
	uniform := domain.ShardImbalance(work, uniformBounds)
	workFed := domain.ShardImbalance(work, domain.SplitWeighted(work, workers))

	t.Logf("actual-work imbalance over %d shards: equal-count %.4f, work-fed %.4f", workers, uniform, workFed)
	if workFed > uniform*1.0001 {
		t.Errorf("work feedback worsened the shard balance: %.4f -> %.4f", uniform, workFed)
	}
}
