package multipole

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twohot/internal/vec"
)

func randomSources(n int, rng *rand.Rand) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 0.5 + rng.Float64()
	}
	return pos, mass
}

func directField(pos []vec.V3, mass []float64, x vec.V3) Result {
	var r Result
	for i := range pos {
		d := pos[i].Sub(x)
		rr := d.Norm()
		r.Phi += mass[i] / rr
		r.Acc = r.Acc.Add(d.Scale(mass[i] / (rr * rr * rr)))
	}
	return r
}

func TestTableSizes(t *testing.T) {
	for p := 0; p <= MaxOrder; p++ {
		tab := Table(p)
		if len(tab.Idx) != NumTerms(p) {
			t.Errorf("p=%d: %d terms, want %d", p, len(tab.Idx), NumTerms(p))
		}
		for n := 0; n <= p; n++ {
			if tab.Offset[n+1]-tab.Offset[n] != numTermsOfOrder(n) {
				t.Errorf("p=%d order %d count wrong", p, n)
			}
		}
	}
	if NumTerms(8) != 165 {
		t.Errorf("NumTerms(8) = %d", NumTerms(8))
	}
}

func TestCanonicalPositionMatchesEnumeration(t *testing.T) {
	tab := Table(MaxOrder + 1)
	for i, mi := range tab.Idx {
		if CanonicalPos(mi) != i {
			t.Fatalf("CanonicalPos(%v) = %d, want %d", mi, CanonicalPos(mi), i)
		}
	}
}

func TestDerivativesAgainstClosedForms(t *testing.T) {
	r := vec.V3{1.3, -0.7, 2.1}
	rr := r.Norm()
	d := Derivatives(r, 3)
	tab := Table(3)
	check := func(mi MultiIndex, want float64) {
		got := d.D[tab.Pos[mi]]
		if math.Abs(got-want) > 1e-12*math.Abs(want)+1e-15 {
			t.Errorf("D_%v = %g, want %g", mi, got, want)
		}
	}
	check(MultiIndex{0, 0, 0}, 1/rr)
	check(MultiIndex{1, 0, 0}, -r[0]/math.Pow(rr, 3))
	check(MultiIndex{0, 1, 0}, -r[1]/math.Pow(rr, 3))
	check(MultiIndex{2, 0, 0}, 3*r[0]*r[0]/math.Pow(rr, 5)-1/math.Pow(rr, 3))
	check(MultiIndex{1, 1, 0}, 3*r[0]*r[1]/math.Pow(rr, 5))
	check(MultiIndex{1, 0, 1}, 3*r[0]*r[2]/math.Pow(rr, 5))
}

func TestDerivativesAreHarmonic(t *testing.T) {
	// 1/r is harmonic, so the trace over any pair of derivative indices
	// must vanish: D_{a+2ex} + D_{a+2ey} + D_{a+2ez} = 0.
	f := func(x, y, z float64) bool {
		r := vec.V3{1 + math.Abs(x), 0.5 + math.Abs(y), 0.3 + math.Abs(z)}
		d := Derivatives(r, 6)
		tab := Table(6)
		for _, base := range []MultiIndex{{0, 0, 0}, {1, 0, 0}, {0, 1, 1}, {2, 1, 0}} {
			sum := 0.0
			scale := 0.0
			for ax := 0; ax < 3; ax++ {
				up := base
				up[ax] += 2
				v := d.D[tab.Pos[up]]
				sum += v
				scale += math.Abs(v)
			}
			if scale > 0 && math.Abs(sum)/scale > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpansionConvergesWithOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos, mass := randomSources(64, rng)
	center := vec.V3{0.5, 0.5, 0.5}
	x := vec.V3{3.5, 3.0, 2.5}
	ref := directField(pos, mass, x)

	prevErr := math.Inf(1)
	for _, p := range []int{0, 2, 4, 6, 8} {
		e := NewExpansion(p, center)
		e.addParticles(pos, mass)
		e.FinalizeNorms()
		res := e.Evaluate(x)
		err := res.Acc.Sub(ref.Acc).Norm() / ref.Acc.Norm()
		if err > prevErr*1.5 {
			t.Errorf("error did not decrease with order: p=%d err=%g prev=%g", p, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-6 {
		t.Errorf("p=8 expansion error too large: %g", prevErr)
	}
}

func TestErrorBoundIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		pos, mass := randomSources(32, rng)
		center := vec.V3{0.5, 0.5, 0.5}
		for _, p := range []int{0, 2, 4} {
			e := NewExpansion(p, center)
			e.addParticles(pos, mass)
			e.FinalizeNorms()
			d := 1.5 + 3*rng.Float64()
			dir := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			dir = dir.Scale(1 / dir.Norm())
			x := center.Add(dir.Scale(d))
			ref := directField(pos, mass, x)
			res := e.Evaluate(x)
			actual := res.Acc.Sub(ref.Acc).Norm()
			bound := e.accelErrorBound(d)
			if actual > bound*1.0001 {
				t.Errorf("p=%d d=%.2f: actual error %g exceeds Salmon-Warren bound %g", p, d, actual, bound)
			}
		}
	}
}

func TestErrorEstimateTracksActualError(t *testing.T) {
	// The norm-based estimate used by the MAC is not a strict bound, but it
	// must be within a modest factor of the true error (so that the errtol
	// parameter maps predictably onto delivered accuracy).
	rng := rand.New(rand.NewSource(3))
	worstUnder := 0.0
	for trial := 0; trial < 50; trial++ {
		pos, mass := randomSources(48, rng)
		center := vec.V3{0.5, 0.5, 0.5}
		e := NewExpansion(4, center)
		e.addParticles(pos, mass)
		e.FinalizeNorms()
		d := 2 + 3*rng.Float64()
		x := center.Add(vec.V3{d, 0, 0})
		ref := directField(pos, mass, x)
		res := e.Evaluate(x)
		actual := res.Acc.Sub(ref.Acc).Norm()
		est := e.AccelErrorEstimate(4, d)
		if actual > 0 && est/actual < 0.2 {
			if actual/est > worstUnder {
				worstUnder = actual / est
			}
		}
	}
	if worstUnder > 20 {
		t.Errorf("error estimate underestimates the true error by up to %gx", worstUnder)
	}
}

func TestM2MShiftPreservesField(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pos, mass := randomSources(40, rng)
	childCenter := vec.V3{0.25, 0.25, 0.25}
	parentCenter := vec.V3{0.5, 0.5, 0.5}
	x := vec.V3{4, 3, 5}

	child := NewExpansion(4, childCenter)
	child.addParticles(pos, mass)
	parent := NewExpansion(4, parentCenter)
	parent.AddShifted(child)

	directParent := NewExpansion(4, parentCenter)
	directParent.addParticles(pos, mass)

	a := parent.Evaluate(x)
	b := directParent.Evaluate(x)
	if a.Acc.Sub(b.Acc).Norm()/b.Acc.Norm() > 1e-12 {
		t.Errorf("M2M-shifted expansion differs from directly built one: %v vs %v", a.Acc, b.Acc)
	}
	// Mass conservation under shift.
	if math.Abs(parent.Mass-directParent.Mass) > 1e-12 {
		t.Error("M2M does not conserve mass")
	}
}

func TestM2LAndL2P(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos, mass := randomSources(30, rng)
	srcCenter := vec.V3{0.5, 0.5, 0.5}
	locCenter := vec.V3{6, 5, 4}

	src := NewExpansion(4, srcCenter)
	src.addParticles(pos, mass)

	T := Derivatives(locCenter.Sub(srcCenter), 8)
	loc := NewLocal(4, locCenter)
	loc.AddM2L(src, T)

	for _, h := range []vec.V3{{0.1, 0, 0}, {-0.2, 0.3, 0.1}, {0, 0, 0.25}} {
		x := locCenter.Add(h)
		ref := directField(pos, mass, x)
		got := loc.Evaluate(x)
		if got.Acc.Sub(ref.Acc).Norm()/ref.Acc.Norm() > 1e-4 {
			t.Errorf("local expansion at %v: %v vs %v", h, got.Acc, ref.Acc)
		}
	}
}

func TestEvaluateTruncatedMatchesLowerOrderExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pos, mass := randomSources(20, rng)
	center := vec.V3{0.5, 0.5, 0.5}
	full := NewExpansion(4, center)
	full.addParticles(pos, mass)
	quad := NewExpansion(2, center)
	quad.addParticles(pos, mass)
	x := vec.V3{3, 2, 4}
	scratch := make([]float64, ScratchSize(4))
	a := full.EvaluateTruncated(x, 2, scratch)
	b := quad.Evaluate(x)
	if a.Acc.Sub(b.Acc).Norm() > 1e-13 {
		t.Errorf("truncated evaluation differs from genuine low-order expansion")
	}
}

func TestBinomial3(t *testing.T) {
	if Binomial3(MultiIndex{2, 1, 0}, MultiIndex{1, 1, 0}) != 2 {
		t.Error("C(2,1)*C(1,1)*C(0,0) should be 2")
	}
	if Binomial3(MultiIndex{1, 0, 0}, MultiIndex{2, 0, 0}) != 0 {
		t.Error("beta > alpha must give 0")
	}
}

func TestEvaluateTruncatedBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pos, mass := randomSources(40, rng)
	center := vec.V3{0.5, 0.5, 0.5}
	e := NewExpansion(4, center)
	e.addParticles(pos, mass)
	e.FinalizeNorms()
	var xs []vec.V3
	var qs []uint8
	for i := 0; i < 24; i++ {
		d := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, center.Add(d.Scale((2+3*rng.Float64())/d.Norm())))
		qs = append(qs, uint8(rng.Intn(6))) // includes q > P, clamped like the scalar path
	}
	scratch := make([]float64, ScratchSize(4))
	out := make([]Result, len(xs))
	e.EvaluateTruncatedBlock(xs, qs, scratch, out)
	for i := range xs {
		want := e.EvaluateTruncated(xs[i], int(qs[i]), scratch)
		if out[i] != want {
			t.Errorf("block eval %d (q=%d): %+v want %+v", i, qs[i], out[i], want)
		}
	}
}

// addParticles accumulates a set of point masses (P2M over a slice).
func (e *Expansion) addParticles(pos []vec.V3, m []float64) {
	for i := range pos {
		e.AddParticle(pos[i], m[i])
	}
}

// numTermsOfOrder returns the number of multi-indices with |alpha| == n.
func numTermsOfOrder(n int) int { return (n + 1) * (n + 2) / 2 }

// accelErrorBound returns the Salmon–Warren style upper bound on the
// acceleration error committed by truncating the multipole expansion of this
// source at order P, when evaluated at distance d from the expansion center
// (d must exceed Bmax).
//
// The bound follows Warren & Salmon (1995), eq. (24) specialised to
// multipole-only (Delta = 0) interactions:
//
//	|da| <= 1/(d - bmax)^2 * ( (p+2) B_{p+1}/d^{p+1} - (p+1) B_{p+2}/d^{p+2} )
//
// where B_n = sum_j |m_j| |d_j|^n.  Since the expansion only stores B up to
// order P+1, the second term uses B_{p+2} <= bmax * B_{p+1}; dropping a
// positive correction keeps the bound conservative.
func (e *Expansion) accelErrorBound(d float64) float64 {
	if d <= e.Bmax {
		return math.Inf(1)
	}
	p := float64(e.P)
	bNext := e.B[e.P+1]
	bNext2 := e.Bmax * bNext
	dp1 := math.Pow(d, p+1)
	bound := ((p+2)*bNext/dp1 - (p+1)*bNext2/(dp1*d)) / ((d - e.Bmax) * (d - e.Bmax))
	if bound < 0 {
		bound = 0
	}
	return bound
}
