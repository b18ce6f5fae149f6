package twohot

import (
	"fmt"
	"math"
	"testing"
)

// Distributed-vs-serial equivalence: the same particle load solved through
// Simulation's single-rank tree path and through the message-passing
// DistributedStep pipeline (Cfg.Ranks > 1) must agree on every force and
// potential to force-error tolerance.  The distributed path re-decomposes the
// box, builds per-rank trees, exchanges branches and fetches remote cells
// over ABM — none of which may move a result beyond the solver's own error
// bar.  Runs in -short mode so CI exercises it under -race.

func distributedConfig() Config {
	cfg := DefaultConfig()
	cfg.NGrid = 10 // 1000 particles
	cfg.BoxSize = 100
	cfg.ZInit = 9
	cfg.ZFinal = 1
	cfg.NSteps = 4
	cfg.ErrTol = 1e-5
	cfg.WS = 1
	cfg.LatticeOrder = 2
	return cfg
}

// byID indexes accelerations and potentials by particle ID.
func byID(s *Simulation) map[int64]int {
	m := make(map[int64]int, s.P.Len())
	for i, id := range s.P.ID {
		m[id] = i
	}
	return m
}

func TestDistributedStepMatchesSerialAccelerations(t *testing.T) {
	cfg := distributedConfig()
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	initial := serial.P.Clone()
	if _, err := serial.Accelerations(); err != nil {
		t.Fatal(err)
	}
	// Normalization: the rms acceleration, the convention of the paper's
	// force-accuracy discussion.
	sum := 0.0
	for _, a := range serial.P.Acc {
		sum += a.Norm2()
	}
	rms := math.Sqrt(sum / float64(serial.P.Len()))
	potScale := 0.0
	for _, p := range serial.P.Pot {
		if v := math.Abs(p); v > potScale {
			potScale = v
		}
	}

	for _, ranks := range []int{2, 4} {
		rcfg := cfg
		rcfg.Ranks = ranks
		dist, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		dist.SetParticles(initial.Clone(), serial.A)
		if _, err := dist.Accelerations(); err != nil {
			t.Fatal(err)
		}
		if dist.P.Len() != serial.P.Len() {
			t.Fatalf("ranks=%d: particle count changed: %d vs %d", ranks, dist.P.Len(), serial.P.Len())
		}
		idx := byID(serial)
		sumSq, maxRel, maxPot := 0.0, 0.0, 0.0
		for i, id := range dist.P.ID {
			j, ok := idx[id]
			if !ok {
				t.Fatalf("ranks=%d: particle ID %d lost", ranks, id)
			}
			rel := dist.P.Acc[i].Sub(serial.P.Acc[j]).Norm() / rms
			sumSq += rel * rel
			if rel > maxRel {
				maxRel = rel
			}
			if dp := math.Abs(dist.P.Pot[i]-serial.P.Pot[j]) / potScale; dp > maxPot {
				maxPot = dp
			}
		}
		rmsErr := math.Sqrt(sumSq / float64(dist.P.Len()))
		t.Logf("ranks=%d: acc error rms %.3e max %.3e, pot error max %.3e", ranks, rmsErr, maxRel, maxPot)
		if rmsErr > 5e-4 {
			t.Errorf("ranks=%d: distributed accelerations differ from serial: rms %.3e", ranks, rmsErr)
		}
		if maxRel > 2e-2 {
			t.Errorf("ranks=%d: distributed acceleration outlier: max %.3e", ranks, maxRel)
		}
		if maxPot > 5e-3 {
			t.Errorf("ranks=%d: distributed potentials differ from serial: max %.3e", ranks, maxPot)
		}
	}
}

// assertBitIdenticalByID fails unless both simulations hold the same epochs
// and, particle by particle (matched by ID — the distributed path regroups
// the set every solve), bitwise-equal positions and momenta.
func assertBitIdenticalByID(t *testing.T, name string, ref, got *Simulation) {
	t.Helper()
	if ref.A != got.A || ref.AMom != got.AMom || ref.StepCount != got.StepCount {
		t.Fatalf("%s: epochs differ: A %v/%v AMom %v/%v steps %d/%d",
			name, ref.A, got.A, ref.AMom, got.AMom, ref.StepCount, got.StepCount)
	}
	if ref.P.Len() != got.P.Len() {
		t.Fatalf("%s: particle counts differ: %d vs %d", name, ref.P.Len(), got.P.Len())
	}
	idx := byID(ref)
	for i, id := range got.P.ID {
		j, ok := idx[id]
		if !ok {
			t.Fatalf("%s: particle ID %d lost", name, id)
		}
		if ref.P.Pos[j] != got.P.Pos[i] || ref.P.Mom[j] != got.P.Mom[i] {
			t.Fatalf("%s: particle %d differs:\n  pos %v vs %v\n  mom %v vs %v",
				name, id, ref.P.Pos[j], got.P.Pos[i], ref.P.Mom[j], got.P.Mom[i])
		}
	}
}

// TestDistributedBlockAllRungZeroBitIdenticalToGlobal is the distributed leg
// of the block engine's degenerate-case contract: with every particle on rung
// 0, a block-stepped run over N ranks must reproduce the global-stepped run
// over the same N ranks BIT FOR BIT — same solves (the engine hands the
// solver a nil mask when everyone is active), same splitters (Work history
// identical), same kicks and drifts.  Covers ranks 2 and 4 so the matrix
// includes an uneven chunking.
func TestDistributedBlockAllRungZeroBitIdenticalToGlobal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run distributed equivalence matrix")
	}
	base := distributedConfig()
	base.NSteps = 3
	for _, ranks := range []int{2, 4} {
		cfg := base
		cfg.Ranks = ranks
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.GenerateICs(); err != nil {
			t.Fatal(err)
		}
		initial := ref.P.Clone()
		a0 := ref.A
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}

		blk := cfg
		blk.BlockSteps = 4
		blk.RungDisplacementFrac = 1e12 // so loose nobody leaves rung 0
		got, err := New(blk)
		if err != nil {
			t.Fatal(err)
		}
		got.SetParticles(initial.Clone(), a0)
		if err := got.Run(); err != nil {
			t.Fatal(err)
		}
		if maxRung(got) != 0 {
			t.Fatalf("ranks=%d: loose criterion left the finest occupied rung at %d, want 0", ranks, maxRung(got))
		}
		assertBitIdenticalByID(t, fmt.Sprintf("ranks=%d", ranks), ref, got)
	}
}

// TestDistributedBlockMultiRungMatchesSerialBlock runs a genuinely multi-rung
// block configuration once on a single rank and once over two ranks: the
// activity masks, rungs and momentum epochs now cross the exchange on every
// substep, and the trajectories must stay within the solver's own error bar
// of each other — the same bound the global-step distributed run is held to.
func TestDistributedBlockMultiRungMatchesSerialBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run distributed equivalence matrix")
	}
	cfg := distributedConfig()
	cfg.NSteps = 3
	cfg.BlockSteps = 3
	cfg.RungDisplacementFrac = 0.01

	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	initial := serial.P.Clone()
	a0 := serial.A
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	occupied := map[int8]bool{}
	for _, r := range serial.P.Rung {
		occupied[r] = true
	}
	if len(occupied) < 2 {
		t.Fatalf("displacement criterion produced a single rung (%v); tighten the test config", occupied)
	}

	rcfg := cfg
	rcfg.Ranks = 2
	dist, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	dist.SetParticles(initial, a0)
	if err := dist.Run(); err != nil {
		t.Fatal(err)
	}
	if dist.A != serial.A || dist.AMom != serial.AMom {
		t.Fatalf("final epochs differ: A %g/%g AMom %g/%g", dist.A, serial.A, dist.AMom, serial.AMom)
	}

	idx := byID(serial)
	maxPos := 0.0
	for i, id := range dist.P.ID {
		j := idx[id]
		if d := dist.P.Pos[i].Sub(serial.P.Pos[j]).Norm(); d > maxPos {
			maxPos = d
		}
	}
	t.Logf("ranks=2 multi-rung (%d rungs occupied): max position difference %.3e Mpc/h",
		len(occupied), maxPos)
	if maxPos > 1e-3*cfg.BoxSize {
		t.Errorf("distributed block trajectory diverged from the serial block run by %.3e Mpc/h", maxPos)
	}
}

// TestDistributedRunStepsMatchSerial drives the multi-rank loop through
// Simulation.StepOnce — the tentpole's "Simulation drives DistributedStep
// directly" — and checks the trajectories stay together.  The particle order
// changes every distributed step (regrouped by rank), so positions are
// compared by ID.
func TestDistributedRunStepsMatchSerial(t *testing.T) {
	cfg := distributedConfig()
	cfg.NSteps = 2

	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	initial := serial.P.Clone()
	a0 := serial.A

	rcfg := cfg
	rcfg.Ranks = 2
	dist, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	dist.SetParticles(initial, a0)

	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dist.Run(); err != nil {
		t.Fatal(err)
	}
	if dist.A != serial.A {
		t.Fatalf("final epochs differ: %g vs %g", dist.A, serial.A)
	}

	idx := byID(serial)
	maxPos := 0.0
	for i, id := range dist.P.ID {
		j := idx[id]
		if d := dist.P.Pos[i].Sub(serial.P.Pos[j]).Norm(); d > maxPos {
			maxPos = d
		}
	}
	t.Logf("ranks=2 after %d steps: max position difference %.3e Mpc/h", cfg.NSteps, maxPos)
	if maxPos > 1e-3*cfg.BoxSize {
		t.Errorf("distributed trajectory diverged from serial by %.3e Mpc/h", maxPos)
	}

	// The work feedback must have flowed through the exchange: after a
	// distributed solve every particle carries its actual interaction count.
	nontrivial := 0
	for _, w := range dist.P.Work {
		if w > 1 {
			nontrivial++
		}
	}
	if nontrivial < dist.P.Len()/2 {
		t.Errorf("per-particle work not recorded: only %d/%d particles carry counts", nontrivial, dist.P.Len())
	}
}
