// Command collapse follows the classic cold spherical-collapse problem with
// open (vacuum) boundary conditions: a uniform cold sphere collapses under
// self gravity, and the force-smoothing kernel controls how violently the
// center is resolved.  It demonstrates the non-periodic code path and the
// kernel options of Section 2.5.  Vacuum boundaries with G = 1 are outside
// what a cosmological twohot.Config describes, so it drives the tree solver
// of internal/core directly.
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

func coldSphere(n int, radius float64, seed int64) *particle.Set {
	rng := rand.New(rand.NewSource(seed))
	set := particle.New(n)
	for set.Len() < n {
		p := vec.V3{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		if p.Norm() > 1 {
			continue
		}
		set.Append(p.Scale(radius), vec.V3{}, 1.0/float64(n), int64(set.Len()))
	}
	return set
}

func main() {
	const n = 8000
	for _, kernel := range []softening.Kernel{softening.Plummer, softening.DehnenK1} {
		set := coldSphere(n, 1.0, 7)
		solver := core.NewTreeSolver(core.TreeConfig{
			Order: 4, ErrTol: 1e-4,
			Kernel: kernel, Eps: 0.05,
			Incremental: true,
		})
		// The free-fall time of a uniform unit-mass, unit-radius sphere
		// (G=1) is t_ff = pi/2 * sqrt(R^3/(2GM)) ~ 1.11.
		dt := 0.01
		var minRadius float64 = math.Inf(1)
		for step := 0; step <= 150; step++ {
			res, err := solver.ActiveForces(set, nil, nil)
			if err != nil {
				panic(err)
			}
			for i := range set.Pos {
				set.Mom[i] = set.Mom[i].Add(res.Acc[i].Scale(dt))
				set.Pos[i] = set.Pos[i].Add(set.Mom[i].Scale(dt))
			}
			if r := halfMass(set.Pos); r < minRadius {
				minRadius = r
			}
			if step%50 == 0 {
				fmt.Printf("kernel=%-10s t=%.2f  half-mass radius=%.3f\n", kernel, float64(step)*dt, halfMass(set.Pos))
			}
		}
		fmt.Printf("kernel=%-10s maximum collapse: half-mass radius %.3f\n\n", kernel, minRadius)
	}
	fmt.Println("(The compensating Dehnen-style kernel lets the collapse reach a deeper, less biased center.)")
}

func halfMass(pos []vec.V3) float64 {
	var com vec.V3
	for _, p := range pos {
		com = com.Add(p)
	}
	com = com.Scale(1 / float64(len(pos)))
	r := make([]float64, len(pos))
	for i, p := range pos {
		r[i] = p.Sub(com).Norm()
	}
	// nth_element-ish: simple sort is fine at this size.
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j] < r[j-1]; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
	return r[len(r)/2]
}
