package transfer

import (
	"math"
	"testing"

	"twohot/internal/cosmo"
)

func TestTransferLimits(t *testing.T) {
	par := cosmo.Planck2013()
	for _, v := range []Variant{EisensteinHu, EisensteinHuNoWiggle, BBKS} {
		s := NewSpectrum(par, v)
		if math.Abs(s.Transfer(1e-5)-1) > 0.02 {
			t.Errorf("variant %d: T(k->0) = %g, want ~1", v, s.Transfer(1e-5))
		}
		if s.Transfer(10) > 1e-2 {
			t.Errorf("variant %d: T(k=10) = %g, should be strongly suppressed", v, s.Transfer(10))
		}
		// Transfer function should be positive and decreasing overall.
		if s.Transfer(0.1) <= s.Transfer(1.0) {
			t.Errorf("variant %d: transfer function not decreasing", v)
		}
	}
}

func TestSigma8Normalization(t *testing.T) {
	par := cosmo.Planck2013()
	s := NewSpectrum(par, EisensteinHu)
	got := s.SigmaR(8)
	if math.Abs(got-par.Sigma8)/par.Sigma8 > 1e-6 {
		t.Errorf("sigma(8) = %g, want %g", got, par.Sigma8)
	}
}

func TestBAOWiggles(t *testing.T) {
	// The full EH98 transfer function oscillates around the no-wiggle form
	// in the BAO regime (k ~ 0.05 - 0.3 h/Mpc).
	par := cosmo.Planck2013()
	full := NewSpectrum(par, EisensteinHu)
	smooth := NewSpectrum(par, EisensteinHuNoWiggle)
	signChanges := 0
	prev := 0.0
	for k := 0.05; k < 0.3; k *= 1.03 {
		diff := full.P(k)/smooth.P(k) - 1
		if prev != 0 && diff*prev < 0 {
			signChanges++
		}
		prev = diff
	}
	if signChanges < 3 {
		t.Errorf("expected BAO oscillations around the no-wiggle spectrum, got %d sign changes", signChanges)
	}
}

func TestSigmaMMonotonic(t *testing.T) {
	par := cosmo.Planck2013()
	s := NewSpectrum(par, EisensteinHu)
	prev := math.Inf(1)
	for _, m := range []float64{1e2, 1e3, 1e4, 1e5} { // 1e12 .. 1e15 Msun/h
		sig := s.SigmaM(m)
		if sig >= prev {
			t.Errorf("sigma(M) must decrease with mass: sigma(%g)=%g", m, sig)
		}
		prev = sig
	}
	// sigma at cluster scales (1e15 Msun/h = 1e5 internal) should be below 1
	// and above 0.3 for Planck-like cosmology.
	sig := s.SigmaM(1e5)
	if sig < 0.3 || sig > 1.2 {
		t.Errorf("sigma(1e15 Msun/h) = %g", sig)
	}
}
