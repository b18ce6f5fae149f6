package core

import (
	"math"
	"math/rand"
	"testing"

	"twohot/internal/ewald"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/traverse"
	"twohot/internal/vec"
)

// forces drives the tree solver's one entry point over bare arrays (nil work =
// no weights), for the tests that predate the particle-set face.
func forces(s *TreeSolver, pos []vec.V3, mass, work []float64) (*Result, error) {
	return s.ActiveForces(&particle.Set{Pos: pos, Mass: mass, Work: work}, nil, nil)
}

// randomCluster builds a clustered particle distribution (a few Gaussian
// blobs) inside the unit box.
func randomCluster(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	nBlobs := 4
	centers := make([]vec.V3, nBlobs)
	for b := range centers {
		centers[b] = vec.V3{0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64()}
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(nBlobs)]
		for {
			p := vec.V3{
				c[0] + 0.08*rng.NormFloat64(),
				c[1] + 0.08*rng.NormFloat64(),
				c[2] + 0.08*rng.NormFloat64(),
			}
			if p[0] > 0 && p[0] < 1 && p[1] > 0 && p[1] < 1 && p[2] > 0 && p[2] < 1 {
				pos[i] = p
				break
			}
		}
		mass[i] = 1.0 / float64(n)
	}
	return pos, mass
}

func uniformBox(n int, l float64, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
		mass[i] = 1
	}
	return pos, mass
}

func TestTreeSolverMatchesDirectOpenBoundary(t *testing.T) {
	pos, mass := randomCluster(2000, 1)
	eps := 0.002

	direct := &DirectSolver{Kernel: softening.Plummer, Eps: eps}
	ref, err := direct.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		cfg    TreeConfig
		maxRMS float64
	}{
		{"abs-err-1e-5-p4", TreeConfig{Order: 4, ErrTol: 1e-5, Kernel: softening.Plummer, Eps: eps}, 2e-4},
		{"abs-err-1e-3-p4", TreeConfig{Order: 4, ErrTol: 1e-3, Kernel: softening.Plummer, Eps: eps}, 5e-3},
		{"barnes-hut-0.5-p2", TreeConfig{Order: 2, MAC: traverse.MACBarnesHut, Theta: 0.5, Kernel: softening.Plummer, Eps: eps}, 5e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solver := NewTreeSolver(tc.cfg)
			res, err := forces(solver, pos, mass, nil)
			if err != nil {
				t.Fatal(err)
			}
			stats := CompareAccelerations(res.Acc, ref.Acc)
			t.Logf("rms=%.3g median=%.3g max=%.3g interactions: p2p=%d cell=%d",
				stats.RMS, stats.Median, stats.Max, res.Counters.P2P, res.Counters.CellInteractions())
			if stats.RMS > tc.maxRMS {
				t.Errorf("rms relative error %.3g exceeds %.3g", stats.RMS, tc.maxRMS)
			}
			if !res.Acc[0].IsFinite() {
				t.Error("non-finite acceleration")
			}
		})
	}
}

func TestTreeSolverBackgroundSubtractionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force Ewald reference is too slow under -short/-race")
	}
	// A small periodic box: verify periodic tree forces (with background
	// subtraction, explicit ws=2 replicas and the far-lattice local
	// expansion) against brute-force Ewald summation.
	const n = 160
	const l = 1.0
	pos, mass := uniformBox(n, l, 3)

	ew := DirectSolver{Periodic: true, BoxSize: l}
	ew.Ewald.RealShell = 3
	ew.Ewald.KShell = 6
	ref, err := ew.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}

	solver := NewTreeSolver(TreeConfig{
		Order: 4, ErrTol: 1e-6,
		Periodic: true, BoxSize: l, BackgroundSubtraction: true,
		WS: 2, LatticeOrder: 4,
	})
	res, err := forces(solver, pos, mass, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := CompareAccelerations(res.Acc, ref.Acc)
	t.Logf("periodic bg-subtraction: rms=%.3g median=%.3g max=%.3g", stats.RMS, stats.Median, stats.Max)
	if stats.RMS > 2e-3 {
		t.Errorf("periodic rms error %.3g too large", stats.RMS)
	}
}

// perturbedGrid builds an "early time" configuration: particles on a regular
// lattice with small random displacements, the regime where background
// subtraction shines (density contrast much smaller than Poisson noise).
func perturbedGrid(nSide int, l, amplitude float64, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := nSide * nSide * nSide
	pos := make([]vec.V3, 0, n)
	mass := make([]float64, 0, n)
	h := l / float64(nSide)
	for i := 0; i < nSide; i++ {
		for j := 0; j < nSide; j++ {
			for k := 0; k < nSide; k++ {
				p := vec.V3{
					vec.PeriodicWrap((float64(i)+0.5)*h+amplitude*h*rng.NormFloat64(), l),
					vec.PeriodicWrap((float64(j)+0.5)*h+amplitude*h*rng.NormFloat64(), l),
					vec.PeriodicWrap((float64(k)+0.5)*h+amplitude*h*rng.NormFloat64(), l),
				}
				pos = append(pos, p)
				mass = append(mass, 1)
			}
		}
	}
	return pos, mass
}

func TestBackgroundSubtractionReducesInteractions(t *testing.T) {
	// The headline claim of Section 2.2.1: for a near-uniform (early time)
	// distribution at fixed absolute error tolerance, background subtraction
	// reduces the number of interactions substantially.
	if testing.Short() {
		t.Skip("two full periodic solves on a 16^3 grid are too slow under -short/-race")
	}
	pos, mass := perturbedGrid(16, 1.0, 0.02, 11)
	base := TreeConfig{Order: 4, ErrTol: 1e-5, Periodic: true, BoxSize: 1, WS: 1}

	withBG := base
	withBG.BackgroundSubtraction = true
	without := base
	without.BackgroundSubtraction = false

	rBG, err := forces(NewTreeSolver(withBG), pos, mass, nil)
	if err != nil {
		t.Fatal(err)
	}
	rNo, err := forces(NewTreeSolver(without), pos, mass, nil)
	if err != nil {
		t.Fatal(err)
	}
	totBG := rBG.Counters.P2P + rBG.Counters.CellInteractions()
	totNo := rNo.Counters.P2P + rNo.Counters.CellInteractions()
	ratio := float64(totNo) / float64(totBG)
	t.Logf("interactions with bg subtraction: %d, without: %d, ratio %.2f", totBG, totNo, ratio)
	// The full factor of 3-5 quoted by the paper needs cells spanning many
	// mean interparticle separations (4096^3 particles in Gpc boxes); at
	// unit-test scale (16^3) only the top levels cancel, so we assert a
	// smaller but still unambiguous reduction.  The benchmark harness
	// (BenchmarkAblationBackgroundSubtraction) runs the larger version.
	if ratio < 1.15 {
		t.Errorf("background subtraction should reduce interactions on an early-time box, got ratio %.2f", ratio)
	}
}

func TestDirect32MatchesDirect64Roughly(t *testing.T) {
	pos, mass := randomCluster(512, 5)
	direct := &DirectSolver{Kernel: softening.None}
	ref, err := direct.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	at := 17
	a32, _ := Direct32Forces(pos, mass, pos[at])
	rel := a32.Sub(ref.Acc[at]).Norm() / ref.Acc[at].Norm()
	if rel > 1e-4 || math.IsNaN(rel) {
		t.Errorf("float32 direct sum differs from float64 by %.3g", rel)
	}
}

func TestDirectSolverEwaldParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 24
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 1
	}
	opt := ewald.Options{RealShell: 2, KShell: 4}
	serial := &DirectSolver{Periodic: true, BoxSize: 1, Ewald: opt, Workers: 1}
	par := &DirectSolver{Periodic: true, BoxSize: 1, Ewald: opt, Workers: 4}
	rs, err := serial.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.Forces(pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pos {
		if rs.Acc[i] != rp.Acc[i] || rs.Pot[i] != rp.Pot[i] {
			t.Fatalf("particle %d: parallel Ewald differs from serial", i)
		}
	}
}
