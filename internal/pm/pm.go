// Package pm implements a particle-mesh Poisson solver and a TreePM-style
// force split.  It plays the role of the GADGET-2 comparison code of
// Figure 7: the PM long-range force is computed on a mesh with a k-space
// Gaussian split (LongRange; with no split it is the whole pure-PM force),
// and the tree walks the short-range force with the complementary erfc
// cutoff.  ShortRange sums that short range directly over neighbors, the
// oracle the tree walk is pinned to.  The characteristic "TreePM transition
// region" feature the paper discusses arises exactly from this split.
package pm

import (
	"math"

	"twohot/internal/cosmo"
	"twohot/internal/fft"
	"twohot/internal/grid"
	"twohot/internal/par"
	"twohot/internal/softening"
	"twohot/internal/vec"
)

// Options configures the PM / TreePM solver.
type Options struct {
	Mesh          int     // mesh cells per dimension (PMGRID)
	BoxSize       float64 // periodic box size
	DeconvolveCIC bool    // compensate the CIC assignment window (twice: deposit + interpolation)
	// Asmth is the force-split scale r_s in units of mesh cells (GADGET-2
	// uses 1.25).  Zero means pure PM (no split, no short-range force).
	Asmth float64
	// RCut is the short-range cutoff radius in units of r_s (GADGET-2 uses
	// 4.5).  Ignored for pure PM.
	RCut float64
	// Eps is the short-range Plummer-equivalent softening length.
	Eps float64
	// Workers caps the goroutines of the short-range sum and of the mesh
	// solve's per-mode and per-particle loops and transforms; <= 0 means
	// GOMAXPROCS.  The
	// result is bit-identical for every worker count (each particle's
	// neighbor sum, each mode and each interpolation is computed independently
	// in a fixed order; the deposit stays serial).
	Workers int
}

// Solver computes gravitational accelerations with PM or TreePM.  It keeps
// state across calls — the first long-range solve tabulates the Green's
// function and allocates the meshes and half spectra that later solves
// reuse — and must not be used from multiple goroutines concurrently, the
// same contract as twohot.ForceSolver.  The mesh fields are real, so every
// transform runs on the n x n x (n/2+1) half spectrum (fft.Half).
type Solver struct {
	opt  Options
	mesh *meshState // nil until the first LongRange
}

// meshState is what a long-range solve reuses: the particle-independent
// tables, the meshes and half spectra, and the deposit weights (grown on
// demand).  Mode tables and spectra cover the n x n x (n/2+1) half.
type meshState struct {
	green  []float64     // Green's function per mode, split filter and CIC deconvolution applied (DC unused)
	kg     []float64     // gradient wavenumber per grid index along one axis, zero at the Nyquist index
	acc    [3]*grid.Mesh // one force component each; acc[0] first holds the deposited mass
	pot    *fft.Half     // density contrast, then the potential, in k space
	grad   *fft.Half     // one gradient component of the potential
	masses []float64     // the deposit weights
}

// NewSolver validates the options and returns a solver.  It allocates no
// mesh: the first LongRange does.
func NewSolver(opt Options) *Solver {
	if opt.RCut == 0 {
		opt.RCut = 4.5
	}
	opt.Workers = par.Workers(opt.Workers)
	return &Solver{opt: opt}
}

// SplitScale returns the force-split scale r_s in length units (0 for pure
// PM).
func (s *Solver) SplitScale() float64 {
	if s.opt.Asmth == 0 {
		return 0
	}
	return s.opt.Asmth * s.opt.BoxSize / float64(s.opt.Mesh)
}

// LongRange overwrites acc[:len(pos)] with the mesh force: the comoving
// accelerations (G = cosmo.G) from the density contrast (the periodic Poisson
// solve discards the DC mode, so the mean density exerts no force).  With
// Asmth = 0 that is the whole pure-PM force.  With Asmth > 0 the Green's
// function carries the Gaussian long-range filter exp(-k^2 rs^2), and the
// result is exactly the long-range half of the TreePM split — the entry point
// the tree-short-range composite pairs with its rcut-truncated walk.
func (s *Solver) LongRange(pos []vec.V3, mass float64, acc []vec.V3) {
	if s.mesh == nil {
		s.mesh = s.newMeshState()
	}
	m := s.mesh
	n, l := s.opt.Mesh, s.opt.BoxSize
	nh := n/2 + 1
	workers := s.opt.Workers
	acc = acc[:len(pos)]

	if cap(m.masses) < len(pos) {
		m.masses = make([]float64, len(pos))
	}
	masses := m.masses[:len(pos)]
	for i := range masses {
		masses[i] = mass
	}
	rho := m.acc[0]
	clear(rho.Data)
	rho.DepositCIC(pos, masses)

	// Convert to density contrast times mean density: rho - rho_mean, in
	// mass per volume units.
	cellVol := math.Pow(l/float64(n), 3)
	mean := rho.Total() / float64(len(rho.Data))
	for i, v := range rho.Data {
		rho.Data[i] = (v - mean) / cellVol
	}
	m.pot.Forward(rho.Data)

	// Potential: phi_k = green_k delta rho_k, one i-plane range per worker.
	plane := n * nh
	par.For(n, workers, func(lo, hi int) {
		for idx := lo * plane; idx < hi*plane; idx++ {
			m.pot.Data[idx] *= complex(m.green[idx], 0)
		}
	})
	m.pot.Data[0] = 0 // the mean density exerts no force

	// Spectral gradient for each force component: a = -grad phi, i.e.
	// a_k = -i k phi_k, inverted into its own mesh.
	for c := 0; c < 3; c++ {
		par.For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < nh; k++ {
						idx := (i*n+j)*nh + k
						kc := m.kg[[3]int{i, j, k}[c]]
						m.grad.Data[idx] = complex(0, -kc) * m.pot.Data[idx]
					}
				}
			}
		})
		m.grad.Inverse(m.acc[c].Data)
	}
	par.For(len(pos), workers, func(lo, hi int) {
		grid.InterpolateCIC(m.acc, pos[lo:hi], acc[lo:hi])
	})
}

// newMeshState allocates the meshes and half spectra and tabulates the
// gradient wavenumbers and the Green's function of the comoving Poisson
// equation for the peculiar potential, phi_k = -4 pi G delta rho_k / k^2,
// times the split filter and the CIC deconvolution.  The gradient zeroes the
// Nyquist index: there -ik phi_k is not Hermitian, so the real force it
// stands for has no component at that wavenumber.
func (s *Solver) newMeshState() *meshState {
	n, l := s.opt.Mesh, s.opt.BoxSize
	nh := n/2 + 1
	rs := s.SplitScale()
	m := &meshState{
		green: make([]float64, n*n*nh),
		kg:    make([]float64, n),
		pot:   fft.NewHalf(n, s.opt.Workers),
		grad:  fft.NewHalf(n, s.opt.Workers),
	}
	for c := range m.acc {
		m.acc[c] = grid.NewMesh(n, l)
	}
	kf := 2 * math.Pi / l
	kv := make([]float64, n)
	for i := range kv {
		kv[i] = float64(fft.FreqIndex(i, n)) * kf
		if 2*i != n {
			m.kg[i] = kv[i]
		}
	}
	par.For(n, s.opt.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < nh; k++ {
					ki, kj, kk := kv[i], kv[j], kv[k]
					k2 := ki*ki + kj*kj + kk*kk
					if k2 == 0 {
						continue // the DC mode is zeroed, not multiplied
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
					m.green[(i*n+j)*nh+k] = green
				}
			}
		}
	})
	return m
}

// ShortRange adds the erfc-complement short-range force using a cell-linked
// neighbor list, the direct-summation analogue of GADGET-2's short-range
// tree walk.  It is exact for the truncated short-range force (every pair
// within rcut is visited exactly once), which makes it the small-N oracle
// for the tree-walk short range of the TreePM composite.
func (s *Solver) ShortRange(pos []vec.V3, mass float64, acc []vec.V3) {
	l := s.opt.BoxSize
	rs := s.SplitScale()
	rcut := s.opt.RCut * rs
	eps := s.opt.Eps
	split := softening.NewSplit(rs)

	// Cell-linked list with cells at least rcut wide.
	nc := int(l / rcut)
	if nc < 1 {
		nc = 1
	}
	if nc > 256 {
		nc = 256
	}
	// The +-1 neighbor sweep must visit each wrapped cell exactly once.  With
	// nc < 3 the periodic wraparound folds distinct offsets onto the same
	// cell (nc=1 maps all 27 offsets to the home cell; nc=2 maps -1 and +1 to
	// the same neighbor), which double-counts every pair in the folded cells.
	// Enumerate the distinct per-axis offsets up front — the 3-D neighbor set
	// is their Cartesian product, so per-axis deduplication is sufficient.
	offsets := []int{-1, 0, 1}
	switch nc {
	case 1:
		offsets = []int{0}
	case 2:
		offsets = []int{0, 1}
	}
	cellOf := func(p vec.V3) (int, int, int) {
		f := float64(nc) / l
		i := int(p[0] * f)
		j := int(p[1] * f)
		k := int(p[2] * f)
		if i >= nc {
			i = nc - 1
		}
		if j >= nc {
			j = nc - 1
		}
		if k >= nc {
			k = nc - 1
		}
		return i, j, k
	}
	heads := make([]int, nc*nc*nc)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int, len(pos))
	for i, p := range pos {
		ci, cj, ck := cellOf(p)
		idx := (ci*nc+cj)*nc + ck
		next[i] = heads[idx]
		heads[idx] = i
	}

	par.For(len(pos), s.opt.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pi := pos[i]
			ci, cj, ck := cellOf(pi)
			var a vec.V3
			for _, di := range offsets {
				for _, dj := range offsets {
					for _, dk := range offsets {
						ni := ((ci+di)%nc + nc) % nc
						nj := ((cj+dj)%nc + nc) % nc
						nk := ((ck+dk)%nc + nc) % nc
						for j := heads[(ni*nc+nj)*nc+nk]; j >= 0; j = next[j] {
							if j == i {
								continue
							}
							d := vec.MinImageV(pos[j].Sub(pi), l)
							r2 := d.Norm2()
							if r2 > rcut*rcut || r2 == 0 {
								continue
							}
							r := math.Sqrt(r2)
							// Short-range kernel: softened Newtonian force
							// times the erfc complement of the Gaussian
							// long-range filter (same factors as the tree
							// short-range walk).
							ff := softening.ForceFactor(softening.Plummer, r, eps)
							sff, _ := split.Factors(r)
							a = a.Add(d.Scale(cosmo.G * mass * ff * sff))
						}
					}
				}
			}
			acc[i] = acc[i].Add(a)
		}
	})
}
