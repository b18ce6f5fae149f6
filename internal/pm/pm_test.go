package pm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/ewald"
	"twohot/internal/fft"
	"twohot/internal/grid"
	"twohot/internal/softening"
	"twohot/internal/vec"
)

func TestPMForcesAgainstEwald(t *testing.T) {
	// A small periodic system: PM long-range forces (with CIC deconvolution)
	// should agree with Ewald for well-separated particles to mesh accuracy.
	rng := rand.New(rand.NewSource(1))
	const n = 64
	const l = 100.0
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
	}
	mass := 1.0

	s := NewSolver(Options{Mesh: 64, BoxSize: l, DeconvolveCIC: true})
	acc := make([]vec.V3, n)
	s.LongRange(pos, mass, acc)

	masses := make([]float64, n)
	for i := range masses {
		masses[i] = mass
	}
	direct := core.DirectSolver{Periodic: true, BoxSize: l, Ewald: ewald.Options{RealShell: 3, KShell: 6}}
	res, err := direct.Forces(pos, masses)
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Acc
	// Scale reference by G to match the PM output.
	rms, refRMS := 0.0, 0.0
	for i := range ref {
		ref[i] = ref[i].Scale(cosmo.G)
		refRMS += ref[i].Norm2()
		rms += acc[i].Sub(ref[i]).Norm2()
	}
	rel := math.Sqrt(rms / refRMS)
	t.Logf("PM vs Ewald rms relative error: %.3f", rel)
	// Pure PM is only accurate for separations much larger than a mesh cell;
	// with 64 particles most pairs sit a few cells apart, so large errors
	// here are expected (this is exactly the force-error criticism the paper
	// levels at pure particle-mesh methods).  Just require finite, non-crazy
	// output.
	if math.IsNaN(rel) || rel > 2 {
		t.Errorf("pure PM error %.3f is pathological", rel)
	}

	// TreePM (mesh + erfc short range) must be far more accurate than pure
	// PM for the same mesh -- the whole point of the split.
	tp := NewSolver(Options{Mesh: 64, BoxSize: l, DeconvolveCIC: true, Asmth: 1.25, Eps: 0.05})
	acc2 := make([]vec.V3, n)
	tp.LongRange(pos, mass, acc2)
	tp.ShortRange(pos, mass, acc2)
	rms2 := 0.0
	for i := range ref {
		rms2 += acc2[i].Sub(ref[i]).Norm2()
	}
	rel2 := math.Sqrt(rms2 / refRMS)
	t.Logf("TreePM vs Ewald rms relative error: %.3f", rel2)
	if rel2 > 0.05 {
		t.Errorf("TreePM error %.3f too large", rel2)
	}
	if rel2 > rel/3 {
		t.Errorf("TreePM (%.3f) should be far more accurate than pure PM (%.3f)", rel2, rel)
	}
}

func TestMomentumConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 200
	const l = 50.0
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
	}
	s := NewSolver(Options{Mesh: 32, BoxSize: l, DeconvolveCIC: true, Asmth: 1.25, Eps: 0.1})
	acc := make([]vec.V3, n)
	s.LongRange(pos, 2.0, acc)
	s.ShortRange(pos, 2.0, acc)
	var net vec.V3
	var scale float64
	for _, a := range acc {
		net = net.Add(a)
		scale += a.Norm()
	}
	if net.Norm() > 1e-6*scale {
		t.Errorf("net force %v should vanish (total %g)", net, scale)
	}
}

// allPairsShortRange is the brute-force O(N^2) reference for the truncated
// erfc-complement short-range force: every minimum-image pair within rcut,
// evaluated with the same kernel factors as Solver.ShortRange.
func allPairsShortRange(s *Solver, pos []vec.V3, mass float64) []vec.V3 {
	l := s.opt.BoxSize
	rs := s.SplitScale()
	rcut := s.opt.RCut * rs
	acc := make([]vec.V3, len(pos))
	for i := range pos {
		for j := range pos {
			if j == i {
				continue
			}
			d := vec.MinImageV(pos[j].Sub(pos[i]), l)
			r2 := d.Norm2()
			if r2 > rcut*rcut || r2 == 0 {
				continue
			}
			r := math.Sqrt(r2)
			ff := softening.ForceFactor(softening.Plummer, r, s.opt.Eps)
			sff, _ := softening.SplitFactors(r, rs)
			acc[i] = acc[i].Add(d.Scale(cosmo.G * mass * ff * sff))
		}
	}
	return acc
}

// TestShortRangeCoarseCellGrid is the regression test for the nc < 3
// pair double-counting bug: with Mesh=16 (nc=2) the wraparound neighbor
// sweep used to fold the -1 and +1 offsets onto the same cell and count
// those pairs twice, and with Mesh=8 (nc=1) every pair was counted up to
// 27 times.  The cell-list sum must match the all-pairs reference in every
// cell-grid regime.
func TestShortRangeCoarseCellGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 96
	const l = 100.0
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
	}
	// Mesh 16 -> rcut = 5.625*l/16 = 35.2, nc = 2;  Mesh 8 -> rcut = 70.3,
	// nc = 1;  Mesh 64 -> nc = 11 (sanity check on the uncollapsed grid).
	for _, mesh := range []int{16, 8, 64} {
		s := NewSolver(Options{Mesh: mesh, BoxSize: l, Asmth: 1.25, Eps: 0.05})
		acc := make([]vec.V3, n)
		s.ShortRange(pos, 2.0, acc)
		ref := allPairsShortRange(s, pos, 2.0)
		var maxRel, refRMS float64
		for i := range ref {
			refRMS += ref[i].Norm2()
		}
		scale := math.Sqrt(refRMS / float64(n))
		for i := range ref {
			if rel := acc[i].Sub(ref[i]).Norm() / scale; rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel > 1e-12 {
			t.Errorf("Mesh=%d: cell-list short range deviates from all-pairs reference (max rel %.3e)", mesh, maxRel)
		}
	}
}

// TestShortRangeWorkerDeterminism pins that the configured worker budget is
// honored and that chunking does not change bits: each particle's neighbor
// sum runs in a fixed order regardless of which goroutine owns it.
func TestShortRangeWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 150
	const l = 50.0
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
	}
	ref := make([]vec.V3, n)
	NewSolver(Options{Mesh: 32, BoxSize: l, Asmth: 1.25, Eps: 0.1, Workers: 1}).ShortRange(pos, 1.5, ref)
	for _, workers := range []int{2, 3, 7, 0} {
		acc := make([]vec.V3, n)
		NewSolver(Options{Mesh: 32, BoxSize: l, Asmth: 1.25, Eps: 0.1, Workers: workers}).ShortRange(pos, 1.5, acc)
		for i := range acc {
			if acc[i] != ref[i] {
				t.Fatalf("workers=%d: particle %d differs from workers=1: %v vs %v", workers, i, acc[i], ref[i])
			}
		}
	}
}

func TestSplitScale(t *testing.T) {
	s := NewSolver(Options{Mesh: 64, BoxSize: 128, Asmth: 1.25})
	if math.Abs(s.SplitScale()-1.25*2) > 1e-12 {
		t.Errorf("split scale %g", s.SplitScale())
	}
	pure := NewSolver(Options{Mesh: 64, BoxSize: 128})
	if pure.SplitScale() != 0 {
		t.Error("pure PM should have no split scale")
	}
}

// longRangeReference is the per-call long-range solve on full complex
// cubes: fresh meshes and grids, the Green's function evaluated per mode on
// every call, every loop serial, and each force component the real part of
// a complex inverse.  It is the oracle LongRange is pinned to within
// rounding.
func longRangeReference(s *Solver, pos []vec.V3, mass float64) []vec.V3 {
	n := s.opt.Mesh
	l := s.opt.BoxSize
	rs := s.SplitScale()

	mesh := grid.NewMesh(n, l)
	masses := make([]float64, len(pos))
	for i := range masses {
		masses[i] = mass
	}
	mesh.DepositCIC(pos, masses)

	// Convert to density contrast times mean density: rho - rho_mean, in
	// mass per volume units.
	cellVol := math.Pow(l/float64(n), 3)
	mean := mesh.Total() / float64(len(mesh.Data))
	for i := range mesh.Data {
		mesh.Data[i] = (mesh.Data[i] - mean) / cellVol
	}

	g := mesh.ToComplex(0)
	g.Forward()

	kf := 2 * math.Pi / l
	// Potential: phi_k = -4 pi G delta rho_k / k^2 (comoving Poisson
	// equation for the peculiar potential).
	for i := 0; i < n; i++ {
		ki := float64(fft.FreqIndex(i, n)) * kf
		for j := 0; j < n; j++ {
			kj := float64(fft.FreqIndex(j, n)) * kf
			for k := 0; k < n; k++ {
				kk := float64(fft.FreqIndex(k, n)) * kf
				idx := g.Index(i, j, k)
				k2 := ki*ki + kj*kj + kk*kk
				if k2 == 0 {
					g.Data[idx] = 0
					continue
				}
				green := -4 * math.Pi * cosmo.G / k2
				if rs > 0 {
					green *= math.Exp(-k2 * rs * rs)
				}
				if s.opt.DeconvolveCIC {
					w := grid.CICWindow(ki, kj, kk, l, n)
					if w > 1e-6 {
						green /= w * w
					}
				}
				g.Data[idx] *= complex(green, 0)
			}
		}
	}

	// Spectral gradient for each force component: a = -grad phi, i.e.
	// a_k = -i k phi_k.
	var comps [3]*grid.Mesh
	for c := 0; c < 3; c++ {
		comp := fft.NewCube(n)
		for i := 0; i < n; i++ {
			ki := float64(fft.FreqIndex(i, n)) * kf
			for j := 0; j < n; j++ {
				kj := float64(fft.FreqIndex(j, n)) * kf
				for k := 0; k < n; k++ {
					kk := float64(fft.FreqIndex(k, n)) * kf
					idx := comp.Index(i, j, k)
					var kc float64
					switch c {
					case 0:
						kc = ki
					case 1:
						kc = kj
					default:
						kc = kk
					}
					comp.Data[idx] = complex(0, -kc) * g.Data[idx]
				}
			}
		}
		comp.Inverse()
		comps[c] = grid.NewMesh(n, l)
		for i, v := range comp.Data {
			comps[c].Data[i] = real(v)
		}
	}
	acc := make([]vec.V3, len(pos))
	grid.InterpolateCIC(comps, pos, acc)
	return acc
}

// randomPositions returns n uniform positions in the periodic box [0, l)^3.
func randomPositions(rng *rand.Rand, n int, l float64) []vec.V3 {
	pos := make([]vec.V3, n)
	for i := range pos {
		pos[i] = vec.V3{l * rng.Float64(), l * rng.Float64(), l * rng.Float64()}
	}
	return pos
}

// longRangeCalls returns the three calls one solver makes in the long-range
// pins: 257 particles, the same moved plus 354 more, then 130 new ones at a
// new mass — so the tables built on the first call and the buffers reused
// after it are exercised as the particle count grows and then shrinks.
func longRangeCalls(l float64) ([][]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(5))
	first := randomPositions(rng, 257, l)
	grown := randomPositions(rng, 611, l)
	for i, p := range first {
		for d := range p {
			grown[i][d] = math.Mod(p[d]+0.3*rng.NormFloat64()+l, l)
		}
	}
	return [][]vec.V3{first, grown, randomPositions(rng, 130, l)}, []float64{1.5, 1.5, 0.7}
}

// TestLongRangeMatchesReference pins LongRange to the complex-cube oracle
// over the split, the deconvolution, and power-of-two, odd and Bluestein
// meshes, through one solver's three calls.  The half-spectrum transforms
// round differently from the full complex ones, so each component must
// agree to 1e-12 of the oracle's rms force rather than bit for bit.
func TestLongRangeMatchesReference(t *testing.T) {
	const l = 40.0
	calls, masses := longRangeCalls(l)
	worst := 0.0
	for _, asmth := range []float64{0, 1.25} {
		for _, deconv := range []bool{true, false} {
			for _, mesh := range []int{1, 3, 15, 16, 24, 33, 64} {
				opt := Options{Mesh: mesh, BoxSize: l, DeconvolveCIC: deconv, Asmth: asmth, Eps: 0.1, Workers: 2}
				s := NewSolver(opt)
				for c, pos := range calls {
					want := longRangeReference(NewSolver(opt), pos, masses[c])
					acc := make([]vec.V3, len(pos))
					s.LongRange(pos, masses[c], acc)
					var ms float64
					for _, a := range want {
						ms += a.Norm2()
					}
					rms := math.Sqrt(ms / float64(len(want)))
					for i := range acc {
						for d := 0; d < 3; d++ {
							diff := math.Abs(acc[i][d] - want[i][d])
							if rms > 0 {
								worst = max(worst, diff/rms)
							}
							if tol := 1e-12 * rms; !(diff <= tol) {
								t.Fatalf("asmth=%g deconv=%v mesh=%d call %d: particle %d component %d is %v, reference %v (|diff| %.3g > %.3g)",
									asmth, deconv, mesh, c, i, d, acc[i][d], want[i][d], diff, tol)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("largest |difference| / rms force: %.3g", worst)
}

// TestLongRangeWorkerIdentity pins that neither Options.Workers (the mode and
// particle loops) nor GOMAXPROCS (the transforms' line and row-pair ranges)
// changes a bit of LongRange over one solver's three calls.
func TestLongRangeWorkerIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const l = 40.0
	calls, masses := longRangeCalls(l)
	for _, mesh := range []int{3, 15, 16, 24, 33, 64} {
		opt := Options{Mesh: mesh, BoxSize: l, DeconvolveCIC: true, Asmth: 1.25, Eps: 0.1}
		var want [][]vec.V3
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 3} {
				opt.Workers = workers
				s := NewSolver(opt)
				for c, pos := range calls {
					acc := make([]vec.V3, len(pos))
					s.LongRange(pos, masses[c], acc)
					if len(want) <= c {
						want = append(want, acc)
						continue
					}
					for i := range acc {
						for d := 0; d < 3; d++ {
							if math.Float64bits(acc[i][d]) != math.Float64bits(want[c][i][d]) {
								t.Fatalf("mesh=%d procs=%d workers=%d call %d: particle %d component %d is %v, procs=1 workers=1 gave %v",
									mesh, procs, workers, c, i, d, acc[i][d], want[c][i][d])
							}
						}
					}
				}
			}
		}
	}
}

// TestLongRangeSteadyAllocations pins that a steady long-range solve reuses
// its grids, tables and buffers: a small constant number of allocations per
// call (goroutine closures and per-range transform scratch), independent of
// the particle count.  The per-call solve it replaced allocated one buffer per
// transform line, tens of thousands per call.
func TestLongRangeSteadyAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{4096, 32768} {
		pos := randomPositions(rng, n, 64)
		acc := make([]vec.V3, n)
		s := NewSolver(Options{Mesh: 64, BoxSize: 64, DeconvolveCIC: true, Asmth: 1.25, Workers: 2})
		s.LongRange(pos, 1, acc)
		if allocs := testing.AllocsPerRun(2, func() { s.LongRange(pos, 1, acc) }); allocs > 256 {
			t.Errorf("%d particles: a steady LongRange allocates %.0f times, want <= 256", n, allocs)
		}
	}
}

// BenchmarkLongRange times one steady long-range solve of the TreePM split
// on a 64^3 mesh with 24^3 uniform particles.
func BenchmarkLongRange(b *testing.B) {
	pos := randomPositions(rand.New(rand.NewSource(3)), 24*24*24, 64)
	acc := make([]vec.V3, len(pos))
	s := NewSolver(Options{Mesh: 64, BoxSize: 64, DeconvolveCIC: true, Asmth: 1.25, Eps: 0.05})
	s.LongRange(pos, 1, acc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LongRange(pos, 1, acc)
	}
}
