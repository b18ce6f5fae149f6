// Command quickstart is the smallest complete use of the 2HOT force engine:
// it builds an isolated Plummer-sphere particle set, computes gravitational
// accelerations with the hashed oct-tree solver at two accuracy settings,
// verifies them against direct summation, and integrates a few dynamical
// times.  An open-boundary G = 1 system is outside what a cosmological
// twohot.Config describes, so it drives the solvers of internal/core
// directly — the same solvers twohot.NewForceSolver wraps.
package main

import (
	"fmt"
	"math"
	"math/rand"

	"twohot/internal/core"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/vec"
)

// plummerSet samples a particle set from a Plummer model with scale radius a.
func plummerSet(n int, a float64, seed int64) *particle.Set {
	rng := rand.New(rand.NewSource(seed))
	set := particle.New(n)
	for i := 0; i < n; i++ {
		// Inverse-transform sample of the Plummer cumulative mass profile.
		x := rng.Float64()
		r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		u := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(1 - u*u)
		pos := vec.V3{r * s * math.Cos(phi), r * s * math.Sin(phi), r * u}
		set.Append(pos, vec.V3{}, 1.0/float64(n), int64(i))
	}
	return set
}

func main() {
	const n = 20000
	eps := 0.02
	set := plummerSet(n, 1.0, 42)

	fmt.Printf("2HOT quickstart: %d-particle Plummer sphere\n\n", n)

	// Reference forces by direct summation.
	direct := core.DirectSolver{Kernel: softening.Plummer, Eps: eps}
	ref, err := direct.Forces(set.Pos, set.Mass)
	if err != nil {
		panic(err)
	}

	for _, errTol := range []float64{1e-3, 1e-5} {
		solver := core.NewTreeSolver(core.TreeConfig{
			Order:  4,
			ErrTol: errTol,
			Kernel: softening.Plummer,
			Eps:    eps,
		})
		res, err := solver.ActiveForces(set, nil, nil)
		if err != nil {
			panic(err)
		}
		stats := core.CompareAccelerations(res.Acc, ref.Acc)
		fmt.Printf("errtol=%.0e: %d cell + %d particle interactions, rms force error %.2e, %.0f ms\n",
			errTol, res.Counters.CellInteractions(), res.Counters.P2P,
			stats.RMS, res.Timings.Total.Seconds()*1e3)
	}

	// Integrate a few steps with a simple leapfrog (non-cosmological): the
	// sphere starts cold, collapses slightly and oscillates.  Incremental
	// solves reuse the previous step's sorted order, bit-identically to
	// from-scratch solves.
	solver := core.NewTreeSolver(core.TreeConfig{
		Order: 4, ErrTol: 1e-4, Kernel: softening.Plummer, Eps: eps, Incremental: true,
	})
	dt := 0.01
	for step := 0; step < 20; step++ {
		res, err := solver.ActiveForces(set, nil, nil)
		if err != nil {
			panic(err)
		}
		for i := range set.Pos {
			set.Mom[i] = set.Mom[i].Add(res.Acc[i].Scale(dt))
			set.Pos[i] = set.Pos[i].Add(set.Mom[i].Scale(dt))
		}
	}
	// Report the half-mass radius after the short integration.
	r2 := make([]float64, n)
	for i, p := range set.Pos {
		r2[i] = p.Norm2()
	}
	fmt.Printf("\nafter 20 cold-collapse steps: half-mass radius %.3f (initial Plummer a=1)\n", halfMassRadius(r2))
}

func halfMassRadius(r2 []float64) float64 {
	cp := append([]float64(nil), r2...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return math.Sqrt(cp[len(cp)/2])
}
