package twohot

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"twohot/internal/grid"
)

// smallConfig returns a configuration small enough for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NGrid = 16
	cfg.BoxSize = 200
	cfg.ZInit = 19
	cfg.ZFinal = 4
	cfg.NSteps = 12
	cfg.ErrTol = 1e-4
	cfg.PMGrid = 32
	cfg.WS = 1
	cfg.LatticeOrder = 0
	return cfg
}

// Validation accept/reject branches live in the TestConfigValidate table in
// config_test.go, the file round trip in TestLoadConfigLayersOverDefaults.

func TestGenerateICsBasicProperties(t *testing.T) {
	cfg := smallConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	n := cfg.NGrid * cfg.NGrid * cfg.NGrid
	if sim.NumParticles() != n {
		t.Fatalf("expected %d particles, got %d", n, sim.NumParticles())
	}
	for i, p := range sim.P.Pos {
		for d := 0; d < 3; d++ {
			if p[d] < 0 || p[d] >= cfg.BoxSize {
				t.Fatalf("particle %d outside box: %v", i, p)
			}
		}
	}
	// The total mass must correspond to the critical density times OmegaM.
	total := sim.P.TotalMass()
	expected := sim.Par.MeanMatterDensity() * math.Pow(cfg.BoxSize, 3)
	if math.Abs(total-expected)/expected > 1e-10 {
		t.Errorf("total mass %g, want %g", total, expected)
	}
	// The realized density field should have rms fluctuations comparable to
	// the linear prediction at z_init (very roughly, given the small box).
	if sim.Redshift() < cfg.ZFinal {
		t.Errorf("redshift after IC generation should be z_init")
	}
}

// TestLinearGrowth is the end-to-end validation of the whole pipeline
// (Section 5's philosophy): evolve a small box over an interval where the
// evolution is still linear on large scales and compare the growth of the
// measured power spectrum with the linear growth factor from the background
// integration.
func TestLinearGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := smallConfig()
	cfg.ZInit = 19
	cfg.ZFinal = 7 // stay well inside the linear regime
	cfg.NSteps = 10
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	aInit := sim.A

	measure := func() []grid.PowerSpectrumResult {
		return grid.MeasureParticlePower(sim.P.Pos, cfg.BoxSize, 32, grid.PowerSpectrumOptions{NumParticles: sim.P.Len()})
	}
	p0 := measure()

	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	p1 := measure()

	growth := sim.Par.GrowthFactor(sim.A) / sim.Par.GrowthFactor(aInit)
	want := growth * growth

	// Compare the mode-by-mode power ratio on the largest scales (first few
	// bins), where linear theory holds.
	var ratios []float64
	for i := 0; i < len(p0) && i < 4; i++ {
		if p0[i].P > 0 && p1[i].Modes > 0 {
			ratios = append(ratios, p1[i].P/p0[i].P)
		}
	}
	if len(ratios) == 0 {
		t.Fatal("no usable power spectrum bins")
	}
	mean := 0.0
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	t.Logf("measured large-scale growth of P(k): %.3f, linear theory D^2: %.3f (D=%.3f)", mean, want, growth)
	if math.Abs(mean-want)/want > 0.2 {
		t.Errorf("measured power growth %.3f deviates more than 20%% from linear theory %.3f", mean, want)
	}
}

func TestCheckpointRestartPreservesLeapfrogOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := smallConfig()
	cfg.NSteps = 6
	cfg.ZFinal = 9
	simA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := simA.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	dlnA := math.Log((1/(1+cfg.ZFinal))/simA.A) / float64(cfg.NSteps)

	// Reference: run all steps in one go.
	simB, _ := New(cfg)
	if err := simB.GenerateICs(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NSteps; i++ {
		if err := simB.StepOnce(dlnA); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpointed: run half, save, restore into a new simulation, finish.
	for i := 0; i < cfg.NSteps/2; i++ {
		if err := simA.StepOnce(dlnA); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "checkpoint.sdf")
	if err := simA.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	simC, _ := New(cfg)
	if err := simC.RestoreCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if simC.AMom == simC.A {
		t.Fatalf("checkpoint lost the leapfrog offset: a=%g a_mom=%g", simC.A, simC.AMom)
	}
	for i := cfg.NSteps / 2; i < cfg.NSteps; i++ {
		if err := simC.StepOnce(dlnA); err != nil {
			t.Fatal(err)
		}
	}

	// The restarted run must match the uninterrupted one to floating-point
	// roundoff levels (identical sequence of operations modulo the restart).
	maxDiff := 0.0
	for i := range simB.P.Pos {
		d := simB.P.Pos[i].Sub(simC.P.Pos[i]).Norm()
		if d > maxDiff {
			maxDiff = d
		}
	}
	t.Logf("max position difference after restart: %g Mpc/h", maxDiff)
	if maxDiff > 1e-8*cfg.BoxSize {
		t.Errorf("restart diverged from the uninterrupted run by %g", maxDiff)
	}
	_ = os.Remove(path)
}
