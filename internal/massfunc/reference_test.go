package massfunc

import (
	"math"
	"testing"

	"twohot/internal/cosmo"
	"twohot/internal/transfer"
)

// The reference below is the theory code as it read before the growth factor
// moved into NewPredictor and the sigma(R) integrand into a table built by
// transfer.NewSpectrum: D(z) integrated on every sigma call, P(k) evaluated
// at every point of the ln k integral.  The production path must equal it
// bit for bit — the tables change where values are computed, not which.

func refTopHat(x float64) float64 {
	if x < 1e-4 {
		return 1 - x*x/10
	}
	return 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
}

func refSigmaR(s *transfer.Spectrum, R float64) float64 {
	const (
		lnkMin = -9.0
		lnkMax = 6.0
		n      = 2048
	)
	h := (lnkMax - lnkMin) / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		lnk := lnkMin + float64(i)*h
		k := math.Exp(lnk)
		w := refTopHat(k * R)
		f := s.P(k) * w * w * k * k * k
		weight := 1.0
		if i == 0 || i == n {
			weight = 0.5
		}
		sum += weight * f
	}
	sum *= h / (2 * math.Pi * math.Pi)
	return math.Sqrt(sum)
}

func refSigmaM(par cosmo.Params, s *transfer.Spectrum, m float64) float64 {
	rho := par.MeanMatterDensity()
	r := math.Cbrt(3 * m / (4 * math.Pi * rho))
	return refSigmaR(s, r)
}

func refDnDlnM(par cosmo.Params, spec *transfer.Spectrum, z float64, fit Fit, m float64) float64 {
	sigmaAt := func(m float64) float64 {
		d := par.GrowthFactor(1 / (1 + z))
		return refSigmaM(par, spec, m) * d
	}
	const h = 0.05
	s1 := sigmaAt(m * math.Exp(-h))
	s2 := sigmaAt(m * math.Exp(h))
	dlnSigmaInv := -(math.Log(s2) - math.Log(s1)) / (2 * h)
	sigma := sigmaAt(m)
	var f float64
	switch fit {
	case Warren06:
		f = fWarren06(sigma)
	default:
		f = fTinker08(sigma, z)
	}
	return f * par.MeanMatterDensity() / m * dlnSigmaInv
}

// TestTheoryMatchesPerCallReference pins SigmaR, SigmaM and both fits'
// DnDlnM to the per-call reference with ==, over every transfer variant,
// redshifts from the start of a run to its end, and masses a decade beyond
// both ends of the bins a 32^3-particle, 64 Mpc/h run's catalogs carry
// (2e2 to 2e4 in units of 1e10 Msun/h).
func TestTheoryMatchesPerCallReference(t *testing.T) {
	par := cosmo.Planck2013()
	masses := []float64{30, 300, 3e3, 3e4, 3e5}
	for _, v := range []transfer.Variant{transfer.EisensteinHu, transfer.EisensteinHuNoWiggle, transfer.BBKS} {
		spec := transfer.NewSpectrum(par, v)
		for _, r := range []float64{0.5, 8, 30} {
			if got, want := spec.SigmaR(r), refSigmaR(spec, r); got != want {
				t.Errorf("variant %d: SigmaR(%g) = %v, reference %v", v, r, got, want)
			}
		}
		for _, m := range masses {
			if got, want := spec.SigmaM(m), refSigmaM(par, spec, m); got != want {
				t.Errorf("variant %d: SigmaM(%g) = %v, reference %v", v, m, got, want)
			}
		}
		for _, z := range []float64{0, 0.5, 2, 24} {
			p := NewPredictor(par, spec, z)
			for _, fit := range []Fit{Tinker08, Warren06} {
				for _, m := range masses {
					if got, want := p.DnDlnM(fit, m), refDnDlnM(par, spec, z, fit, m); got != want {
						t.Errorf("variant %d z=%g fit %d: DnDlnM(%g) = %v, reference %v", v, z, fit, m, got, want)
					}
				}
			}
		}
	}
}
