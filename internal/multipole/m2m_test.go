package multipole

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twohot/internal/vec"
)

// addShiftedReference is AddShifted as the double loop over the index table
// it replaced: every (alpha, beta) pair is visited, the coefficient is
// Binomial3 and the absolute-moment bound calls binom and math.Pow per term.
func (e *Expansion) addShiftedReference(child *Expansion) {
	t := Table(e.P)
	s := child.Center.Sub(e.Center)
	pow := powers(e.P, s)
	for ia, a := range t.Idx {
		sum := 0.0
		for ib, b := range t.Idx {
			if b[0] > a[0] || b[1] > a[1] || b[2] > a[2] {
				continue
			}
			c := Binomial3(a, b)
			sum += c * pow[0][a[0]-b[0]] * pow[1][a[1]-b[1]] * pow[2][a[2]-b[2]] * child.M[ib]
		}
		e.M[ia] += sum
	}
	smag := s.Norm()
	for n := 0; n <= e.P+1; n++ {
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += binom(n, k) * math.Pow(smag, float64(n-k)) * child.B[k]
		}
		e.B[n] += sum
	}
	if b := smag + child.Bmax; b > e.Bmax {
		e.Bmax = b
	}
	e.Mass += child.Mass
}

// subtractedChild is a cell expansion the way the tree build shifts it: the
// moments of its particles plus a negative background of more mass than they
// hold, so its mass and many of its moments are negative.
func subtractedChild(p int, center vec.V3, rng *rand.Rand) *Expansion {
	e := NewExpansion(p, center)
	pos, mass := randomSources(12, rng)
	for i := range pos {
		e.AddParticle(center.Add(pos[i].Sub(vec.V3{0.5, 0.5, 0.5}).Scale(0.25)), mass[i])
	}
	bg := NewExpansion(p, center)
	for i := 0; i < 8; i++ {
		off := vec.V3{float64(i&1) - 0.5, float64(i>>1&1) - 0.5, float64(i>>2) - 0.5}
		bg.AddParticle(center.Add(off.Scale(0.125)), -2.5)
	}
	e.AddExpansion(bg)
	return e
}

// TestAddShiftedMatchesReference pins the tabulated M2M to the double loop
// bit for bit — moments, absolute moments, Bmax and mass — at every order,
// for background-subtracted children shifted one after another into a
// parent, as the tree build's upward pass does.
func TestAddShiftedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	parentCenter := vec.V3{0.5, 0.5, 0.5}
	for p := 0; p <= MaxOrder; p++ {
		got := NewExpansion(p, parentCenter)
		want := NewExpansion(p, parentCenter)
		for oct := 0; oct < 8; oct++ {
			off := vec.V3{float64(oct&1) - 0.5, float64(oct>>1&1) - 0.5, float64(oct>>2) - 0.5}
			child := subtractedChild(p, parentCenter.Add(off.Scale(0.5)), rng)
			if child.Mass >= 0 {
				t.Fatalf("p=%d: child mass %v, want a background-subtracted (negative) one", p, child.Mass)
			}
			got.AddShifted(child)
			want.addShiftedReference(child)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for i := range want.M {
			if !same(got.M[i], want.M[i]) {
				t.Errorf("p=%d: M[%d] (%v) = %v, reference %v", p, i, Table(p).Idx[i], got.M[i], want.M[i])
			}
		}
		for n := range want.B {
			if !same(got.B[n], want.B[n]) {
				t.Errorf("p=%d: B[%d] = %v, reference %v", p, n, got.B[n], want.B[n])
			}
		}
		if !same(got.Bmax, want.Bmax) || !same(got.Mass, want.Mass) {
			t.Errorf("p=%d: Bmax, Mass = %v, %v; reference %v, %v", p, got.Bmax, got.Mass, want.Bmax, want.Mass)
		}
	}
}

// BenchmarkAddShifted times one M2M of a background-subtracted child at the
// default order and at the paper's highest.
func BenchmarkAddShifted(b *testing.B) {
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			child := subtractedChild(p, vec.V3{0.25, 0.25, 0.25}, rng)
			parent := NewExpansion(p, vec.V3{0.5, 0.5, 0.5})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parent.AddShifted(child)
			}
			benchSink += parent.M[0]
		})
	}
}
