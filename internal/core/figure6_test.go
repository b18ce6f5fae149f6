package core

// The paper's Figure 6 harness: multipole acceleration error against distance
// for orders p = 0..8, beside a float32 direct sum.  Run with
//
//	go test -run '^$' -bench Figure6 -benchtime 1x ./internal/core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twohot/internal/multipole"
	"twohot/internal/vec"
)

// direct32Forces computes accelerations in single precision (no softening),
// reproducing the "direct sum (float32)" reference of Figure 6.
func direct32Forces(pos []vec.V3, mass []float64, at vec.V3) (vec.V3, float64) {
	var ax, ay, az, p float32
	x := [3]float32{float32(at[0]), float32(at[1]), float32(at[2])}
	for j := range pos {
		dx := float32(pos[j][0]) - x[0]
		dy := float32(pos[j][1]) - x[1]
		dz := float32(pos[j][2]) - x[2]
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		inv := 1 / float32(math.Sqrt(float64(r2)))
		m := float32(mass[j])
		p += m * inv
		mInv3 := m * inv * inv * inv
		ax += dx * mInv3
		ay += dy * mInv3
		az += dz * mInv3
	}
	return vec.V3{float64(ax), float64(ay), float64(az)}, float64(p)
}

// BenchmarkFigure6MultipoleError prints Figure 6's table on 512 random
// particles in a unit cube, and the error distribution at r = 4.
func BenchmarkFigure6MultipoleError(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n = 512
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 1.0 / n
	}
	center := vec.V3{0.5, 0.5, 0.5}
	orders := []int{0, 2, 4, 6, 8}
	exps := map[int]*multipole.Expansion{}
	for _, p := range orders {
		e := multipole.NewExpansion(p, center)
		for i := range pos {
			e.AddParticle(pos[i], mass[i])
		}
		e.FinalizeNorms()
		exps[p] = e
	}
	direct := func(x vec.V3) vec.V3 {
		var a vec.V3
		for i := range pos {
			d := pos[i].Sub(x)
			r := d.Norm()
			a = a.Add(d.Scale(mass[i] / (r * r * r)))
		}
		return a
	}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		if iter > 0 {
			continue // the table only needs to be produced once
		}
		fmt.Println("\nFigure 6: relative acceleration error vs distance (512 particles, unit cube)")
		fmt.Printf("%6s %12s %12s %12s %12s %12s %12s\n", "r", "p=0", "p=2", "p=4", "p=6", "p=8", "float32")
		for _, r := range []float64{0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
			x := center.Add(vec.V3{r, 0, 0})
			ref := direct(x)
			row := fmt.Sprintf("%6.2f", r)
			for _, p := range orders {
				res := exps[p].Evaluate(x)
				row += fmt.Sprintf(" %12.3e", res.Acc.Sub(ref).Norm()/ref.Norm())
			}
			a32, _ := direct32Forces(pos, mass, x)
			row += fmt.Sprintf(" %12.3e", a32.Sub(ref).Norm()/ref.Norm())
			fmt.Println(row)
		}
		// Histogram of errors at r=4 over random directions (the lower panel).
		fmt.Println("Figure 6 (lower): error distribution at r=4 (100 random directions), log10 median")
		for _, p := range orders {
			med := medianErrAtR(exps[p], pos, mass, center, 4.0, rng)
			fmt.Printf("  p=%d: median rel err %.3e\n", p, med)
		}
	}
}

func medianErrAtR(e *multipole.Expansion, pos []vec.V3, mass []float64, center vec.V3, r float64, rng *rand.Rand) float64 {
	var errs []float64
	for k := 0; k < 100; k++ {
		d := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		d = d.Scale(r / d.Norm())
		x := center.Add(d)
		var ref vec.V3
		for i := range pos {
			dd := pos[i].Sub(x)
			rr := dd.Norm()
			ref = ref.Add(dd.Scale(mass[i] / (rr * rr * rr)))
		}
		res := e.Evaluate(x)
		errs = append(errs, res.Acc.Sub(ref).Norm()/ref.Norm())
	}
	// median
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}
