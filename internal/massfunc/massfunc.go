// Package massfunc measures the halo mass function from a halo catalog and
// evaluates the fitting functions it is compared against in Figure 8: the
// Tinker et al. (2008) spherical-overdensity fit and the Warren et al. (2006)
// FOF fit (the earlier calibration this group produced with HOT).
package massfunc

import (
	"math"

	"twohot/internal/cosmo"
	"twohot/internal/transfer"
)

// Bin is one logarithmic mass bin of a measured mass function.
type Bin struct {
	MLo, MHi float64 // bin edges [1e10 Msun/h]
	MCenter  float64 // geometric center
	Count    int
	NDensity float64 // dn/dlnM [h^3/Mpc^3]
	Poisson  float64 // Poisson uncertainty on NDensity
}

// Measure bins halo masses (1e10 Msun/h) from a simulation of volume
// boxSize^3 into nBins logarithmic bins between mMin and mMax and returns
// dn/dlnM per bin.
func Measure(masses []float64, boxSize float64, mMin, mMax float64, nBins int) []Bin {
	if nBins < 1 || mMax <= mMin {
		return nil
	}
	vol := boxSize * boxSize * boxSize
	dln := math.Log(mMax/mMin) / float64(nBins)
	bins := make([]Bin, nBins)
	for i := range bins {
		bins[i].MLo = mMin * math.Exp(float64(i)*dln)
		bins[i].MHi = mMin * math.Exp(float64(i+1)*dln)
		bins[i].MCenter = math.Sqrt(bins[i].MLo * bins[i].MHi)
	}
	for _, m := range masses {
		if m < mMin || m >= mMax {
			continue
		}
		b := int(math.Log(m/mMin) / dln)
		// The log/divide can round a mass just under an edge into the next
		// bin — including one past the last for m just below mMax.  Clamp
		// instead of dropping: every mass in [mMin, mMax) lands in exactly
		// one bin, so the bin counts always sum to the in-range mass count
		// (the partition property the property tests pin).
		if b < 0 {
			b = 0
		}
		if b >= nBins {
			b = nBins - 1
		}
		bins[b].Count++
	}
	for i := range bins {
		bins[i].NDensity = float64(bins[i].Count) / vol / dln
		bins[i].Poisson = math.Sqrt(float64(bins[i].Count)) / vol / dln
	}
	return bins
}

// Fit identifies an analytic mass-function fit.
type Fit int

const (
	// Tinker08 is the Delta=200 (mean) spherical-overdensity fit of Tinker
	// et al. (2008).
	Tinker08 Fit = iota
	// Warren06 is the FOF (b=0.2) fit of Warren et al. (2006).
	Warren06
)

// Predictor evaluates analytic mass functions for one cosmology at one
// redshift, fixed at construction together with its growth factor.
type Predictor struct {
	par  cosmo.Params
	spec *transfer.Spectrum
	z    float64
	d    float64 // linear growth factor D(z)
}

// NewPredictor builds a predictor at redshift z.
func NewPredictor(par cosmo.Params, spec *transfer.Spectrum, z float64) *Predictor {
	return &Predictor{par: par, spec: spec, z: z, d: par.GrowthFactor(1 / (1 + z))}
}

// Growth returns the linear growth factor D(z) at the predictor's redshift.
func (p *Predictor) Growth() float64 { return p.d }

// sigma returns sigma(M, z).
func (p *Predictor) sigma(m float64) float64 { return p.spec.SigmaM(m) * p.d }

// dlnSigmaInvdlnM returns dln(1/sigma)/dlnM by finite difference.
func (p *Predictor) dlnSigmaInvdlnM(m float64) float64 {
	const h = 0.05
	s1 := p.sigma(m * math.Exp(-h))
	s2 := p.sigma(m * math.Exp(h))
	return -(math.Log(s2) - math.Log(s1)) / (2 * h)
}

// fTinker08 is the multiplicity function f(sigma) for Delta = 200 (mean).
func fTinker08(sigma, z float64) float64 {
	// Parameters at Delta=200 from Tinker et al. 2008, Table 2, with the
	// prescribed redshift evolution.
	A0, a0, b0, c0 := 0.186, 1.47, 2.57, 1.19
	A := A0 * math.Pow(1+z, -0.14)
	a := a0 * math.Pow(1+z, -0.06)
	alpha := math.Pow(10, -math.Pow(0.75/math.Log10(200.0/75.0), 1.2))
	b := b0 * math.Pow(1+z, -alpha)
	c := c0
	return A * (math.Pow(sigma/b, -a) + 1) * math.Exp(-c/(sigma*sigma))
}

// fWarren06 is the FOF multiplicity function of Warren et al. (2006).
func fWarren06(sigma float64) float64 {
	const (
		aW = 0.7234
		bW = 1.625
		cW = 0.2538
		dW = 1.1982
	)
	return aW * (math.Pow(sigma, -bW) + cW) * math.Exp(-dW/(sigma*sigma))
}

// DnDlnM returns the predicted dn/dlnM [h^3/Mpc^3] at halo mass m
// (1e10 Msun/h).
func (p *Predictor) DnDlnM(fit Fit, m float64) float64 {
	sigma := p.sigma(m)
	var f float64
	switch fit {
	case Warren06:
		f = fWarren06(sigma)
	default:
		f = fTinker08(sigma, p.z)
	}
	rhoM := p.par.MeanMatterDensity()
	return f * rhoM / m * p.dlnSigmaInvdlnM(m)
}
