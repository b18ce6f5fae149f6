package softening

import (
	"math"
	"testing"
)

func TestAllKernelsNewtonianFarField(t *testing.T) {
	eps := 0.1
	r := 5.0
	for _, k := range []Kernel{None, Plummer, Spline, DehnenK1} {
		ff := ForceFactor(k, r, eps)
		pf := PotentialFactor(k, r, eps)
		if math.Abs(ff-1/(r*r*r))/(1/(r*r*r)) > 2e-3 {
			t.Errorf("%v force factor at large r: %g", k, ff)
		}
		if math.Abs(pf-1/r)/(1/r) > 2e-3 {
			t.Errorf("%v potential factor at large r: %g", k, pf)
		}
	}
}

func TestCompactKernelsExactBeyondSupport(t *testing.T) {
	h := 0.5
	r := 0.5001
	for _, k := range []Kernel{Spline, DehnenK1} {
		if ForceFactor(k, r, h) != 1/(r*r*r) {
			t.Errorf("%v should be exactly Newtonian beyond the support", k)
		}
		if PotentialFactor(k, r, h) != 1/r {
			t.Errorf("%v potential should be exactly 1/r beyond the support", k)
		}
	}
}

func TestForceContinuity(t *testing.T) {
	h := 1.0
	for _, k := range []Kernel{Plummer, Spline, DehnenK1} {
		for _, r := range []float64{0.4999, 0.5001, 0.9999, 1.0001} {
			lo := ForceFactor(k, r*(1-1e-6), h)
			hi := ForceFactor(k, r*(1+1e-6), h)
			if lo == 0 && hi == 0 {
				continue
			}
			if math.Abs(hi-lo)/math.Max(math.Abs(hi), math.Abs(lo)) > 1e-3 {
				t.Errorf("%v force discontinuous at r=%g: %g vs %g", k, r, lo, hi)
			}
		}
	}
}

func TestForceVanishesAtZero(t *testing.T) {
	for _, k := range []Kernel{Plummer, Spline, DehnenK1} {
		// acceleration = m * g(r) * r; at r -> 0 it must go to zero.
		r := 1e-8
		a := ForceFactor(k, r, 1.0) * r
		if math.Abs(a) > 1e-3 {
			t.Errorf("%v force does not vanish at the origin: %g", k, a)
		}
	}
}

func TestCompensationProperty(t *testing.T) {
	// The paper adopts Dehnen's conclusion that the optimal kernel
	// compensates: its force exceeds Newtonian somewhere inside the support.
	if r := maxForceRatio(DehnenK1, 1.0); r <= 1.0 {
		t.Errorf("compensating kernel max force ratio %g, want > 1", r)
	}
	if r := maxForceRatio(Plummer, 1.0); r > 1.0+1e-12 {
		t.Errorf("plummer should never exceed Newtonian, got %g", r)
	}
	if r := maxForceRatio(Spline, 1.0); r > 1.0+1e-9 {
		t.Errorf("spline should never exceed Newtonian, got %g", r)
	}
}

func TestSplineMatchesGadgetValues(t *testing.T) {
	// Spot-check the GADGET-2 piecewise polynomial at u = 0.25 and 0.75.
	h := 1.0
	u := 0.25
	want := 10.666666666666666 + u*u*(32.0*u-38.4)
	if got := ForceFactor(Spline, u, h); math.Abs(got-want) > 1e-12 {
		t.Errorf("spline at u=0.25: %g want %g", got, want)
	}
	u = 0.75
	want = 21.333333333333332 - 48.0*u + 38.4*u*u - 10.666666666666666*u*u*u - 0.06666666666666667/(u*u*u)
	if got := ForceFactor(Spline, u, h); math.Abs(got-want) > 1e-12 {
		t.Errorf("spline at u=0.75: %g want %g", got, want)
	}
}

func TestParseKernel(t *testing.T) {
	for _, tc := range []struct {
		s  string
		k  Kernel
		ok bool
	}{
		{"plummer", Plummer, true},
		{"spline", Spline, true},
		{"dehnen-k1", DehnenK1, true},
		{"k1", DehnenK1, true},
		{"", None, true},
		{"nonsense", None, false},
	} {
		k, ok := ParseKernel(tc.s)
		if ok != tc.ok || (ok && k != tc.k) {
			t.Errorf("ParseKernel(%q) = %v, %v", tc.s, k, ok)
		}
	}
	if DehnenK1.String() != "dehnen-k1" || Plummer.String() != "plummer" {
		t.Error("String()")
	}
}

func TestFactorsMatchSeparateCalls(t *testing.T) {
	// The fused entry point must agree bit-for-bit with the two separate
	// calls: the traversal equivalence suite compares new-path forces against
	// the legacy path with ==.
	rs := []float64{0, 1e-170, 1e-9, 0.01, 0.24, 0.25, 0.5, 0.74, 0.99, 1.0, 1.5, 7.3}
	epss := []float64{0, 0.01, 0.3, 1.0}
	for _, k := range []Kernel{None, Plummer, Spline, DehnenK1, Kernel(99)} {
		for _, r := range rs {
			for _, eps := range epss {
				ff, pf := Factors(k, r, eps)
				wantFF := ForceFactor(k, r, eps)
				wantPF := PotentialFactor(k, r, eps)
				ffSame := ff == wantFF || (math.IsNaN(ff) && math.IsNaN(wantFF))
				pfSame := pf == wantPF || (math.IsNaN(pf) && math.IsNaN(wantPF))
				if !ffSame || !pfSame {
					t.Errorf("Factors(%v, %g, %g) = (%g, %g), want (%g, %g)",
						k, r, eps, ff, pf, wantFF, wantPF)
				}
			}
		}
	}
}

// maxForceRatio returns the maximum of (kernel force)/(Newtonian force)
// inside the support, a diagnostic of the compensation property (> 1 for
// compensating kernels, <= 1 for Plummer and spline).
func maxForceRatio(k Kernel, h float64) float64 {
	maxR := 0.0
	for i := 1; i <= 1000; i++ {
		r := h * float64(i) / 1000
		ratio := ForceFactor(k, r, h) * (r * r * r)
		if ratio > maxR {
			maxR = ratio
		}
	}
	return maxR
}
