// Package cosmo implements the cosmological background on which 2HOT
// integrates the equations of motion (Section 2.1 and 2.3 of the paper):
// the Friedmann equation with radiation, matter, curvature and dark energy,
// the linear growth factor (with and without radiation, mirroring the paper's
// point that neglecting radiation shifts the age by millions of years and the
// growth from z=99 by almost 5%), and the symplectic drift/kick integrals of
// Quinn et al. (1997) used by the comoving leapfrog integrator.
//
// In the paper these quantities are obtained from the CLASS Boltzmann code;
// here they are computed directly from the Friedmann equation, which is exact
// for the background (the transfer function approximation lives in package
// transfer).
package cosmo

import (
	"fmt"
	"math"
)

// Internal unit system (the "Gadget-like" h-free convention):
//
//	length   Mpc/h
//	velocity km/s
//	mass     1e10 Msun/h
//
// so that H0 = 100 km/s/(Mpc/h) regardless of h, and G below.
const (
	// G is Newton's constant in internal units.
	G = 43.0071
	// H0 is the Hubble constant in internal units (km/s per Mpc/h).
	H0 = 100.0
	// RhoCrit0 is the critical density today in internal units,
	// 3 H0^2 / (8 pi G).
	RhoCrit0 = 3 * H0 * H0 / (8 * math.Pi * G)
)

// Params holds the parameters of a Friedmann background plus the primordial
// spectrum parameters used by package transfer.
type Params struct {
	Name string

	H float64 // dimensionless Hubble parameter h

	OmegaM float64 // total matter (CDM + baryons) today
	OmegaB float64 // baryons today
	OmegaL float64 // dark energy today
	OmegaK float64 // curvature today

	// Radiation.  If IncludeRadiation is true, OmegaG (photons) and OmegaNu
	// (massless neutrinos) are derived from TCMB and Neff unless set
	// explicitly.
	IncludeRadiation bool
	TCMB             float64 // CMB temperature in K (default 2.7255)
	Neff             float64 // effective number of neutrino species (default 3.046)
	OmegaG           float64
	OmegaNu          float64

	// Dark energy equation of state w(a) = W0 + (1-a) WA.
	W0 float64
	WA float64

	// Primordial spectrum.
	Ns     float64 // spectral index
	Sigma8 float64 // normalization
}

// Planck2013 returns the Planck 2013 parameter set used for the paper's
// headline simulations.
func Planck2013() Params {
	p := Params{
		Name:             "planck2013",
		H:                0.6711,
		OmegaM:           0.3175,
		OmegaB:           0.0490,
		OmegaL:           0.6825,
		IncludeRadiation: true,
		W0:               -1,
		Ns:               0.9624,
		Sigma8:           0.8344,
	}
	p.fillDefaults()
	return p
}

// WMAP7 returns the WMAP 7-year parameter set.
func WMAP7() Params {
	p := Params{
		Name:             "wmap7",
		H:                0.704,
		OmegaM:           0.272,
		OmegaB:           0.0455,
		OmegaL:           0.728,
		IncludeRadiation: true,
		W0:               -1,
		Ns:               0.967,
		Sigma8:           0.810,
	}
	p.fillDefaults()
	return p
}

// WMAP1 returns the WMAP first-year parameter set against which the Tinker08
// mass function was calibrated (used by the Figure 8 comparison).
func WMAP1() Params {
	p := Params{
		Name:             "wmap1",
		H:                0.72,
		OmegaM:           0.27,
		OmegaB:           0.046,
		OmegaL:           0.73,
		IncludeRadiation: true,
		W0:               -1,
		Ns:               0.99,
		Sigma8:           0.90,
	}
	p.fillDefaults()
	return p
}

// Einstein–de Sitter toy model (matter only), useful in tests.
func EdS() Params {
	p := Params{
		Name:   "eds",
		H:      0.7,
		OmegaM: 1.0,
		OmegaB: 0.05,
		OmegaL: 0.0,
		W0:     -1,
		Ns:     1.0,
		Sigma8: 0.8,
	}
	p.fillDefaults()
	return p
}

// ByName returns a named preset.
func ByName(name string) (Params, error) {
	switch name {
	case "planck2013", "planck":
		return Planck2013(), nil
	case "wmap7":
		return WMAP7(), nil
	case "wmap1":
		return WMAP1(), nil
	case "eds":
		return EdS(), nil
	default:
		return Params{}, fmt.Errorf("cosmo: unknown parameter set %q", name)
	}
}

func (p *Params) fillDefaults() {
	if p.TCMB == 0 {
		p.TCMB = 2.7255
	}
	if p.Neff == 0 {
		p.Neff = 3.046
	}
	if p.IncludeRadiation {
		if p.OmegaG == 0 {
			// Omega_gamma h^2 = 2.469e-5 at TCMB = 2.725 K, scaling as T^4.
			t := p.TCMB / 2.725
			p.OmegaG = 2.469e-5 * t * t * t * t / (p.H * p.H)
		}
		if p.OmegaNu == 0 {
			p.OmegaNu = p.OmegaG * 0.2271 * p.Neff
		}
	}
	// Close the universe through curvature if OmegaK not set explicitly.
	if p.OmegaK == 0 {
		p.OmegaK = 1 - p.OmegaM - p.OmegaL - p.OmegaR()
	}
}

// Validate checks the parameter set for consistency.
func (p Params) Validate() error {
	if p.H <= 0 {
		return fmt.Errorf("cosmo: h must be positive, got %g", p.H)
	}
	if p.OmegaM <= 0 {
		return fmt.Errorf("cosmo: OmegaM must be positive, got %g", p.OmegaM)
	}
	if p.OmegaB < 0 || p.OmegaB > p.OmegaM {
		return fmt.Errorf("cosmo: OmegaB must lie in [0, OmegaM]")
	}
	total := p.OmegaM + p.OmegaL + p.OmegaK + p.OmegaR()
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("cosmo: density parameters sum to %g, want 1", total)
	}
	return nil
}

// OmegaR returns the total relativistic density parameter today.
func (p Params) OmegaR() float64 {
	if !p.IncludeRadiation {
		return 0
	}
	return p.OmegaG + p.OmegaNu
}

// darkEnergyDensity returns the dark-energy density relative to today as a
// function of the scale factor for the w0/wa parameterization.
func (p Params) darkEnergyDensity(a float64) float64 {
	if p.W0 == -1 && p.WA == 0 {
		return 1
	}
	return math.Pow(a, -3*(1+p.W0+p.WA)) * math.Exp(-3*p.WA*(1-a))
}

// E returns H(a)/H0.
func (p Params) E(a float64) float64 {
	a2 := a * a
	return math.Sqrt(p.OmegaR()/(a2*a2) + p.OmegaM/(a2*a) + p.OmegaK/a2 + p.OmegaL*p.darkEnergyDensity(a))
}

// H returns the Hubble rate at scale factor a in internal units.
func (p Params) Hubble(a float64) float64 { return H0 * p.E(a) }

// OmegaMatterAt returns Omega_m(a).
func (p Params) OmegaMatterAt(a float64) float64 {
	e := p.E(a)
	return p.OmegaM / (a * a * a) / (e * e)
}

// MeanMatterDensity returns the comoving mean matter density in internal
// units (independent of a in comoving coordinates).
func (p Params) MeanMatterDensity() float64 { return p.OmegaM * RhoCrit0 }

// ParticleMass returns the particle mass for N^3... rather, for np particles
// filling a periodic box of comoving side boxSize (Mpc/h).
func (p Params) ParticleMass(boxSize float64, np int) float64 {
	return p.MeanMatterDensity() * boxSize * boxSize * boxSize / float64(np)
}

// integrate performs adaptive Simpson integration of f over [a, b].
func integrate(f func(float64) float64, a, b float64) float64 {
	if a == b {
		return 0
	}
	const n = 512
	h := (b - a) / n
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// DriftFactor returns the symplectic drift integral int_{a1}^{a2} da /
// (a^3 H(a)) used to advance comoving positions with the canonical momentum
// p = a^2 dx/dt (Quinn et al. 1997).
func (p Params) DriftFactor(a1, a2 float64) float64 {
	f := func(a float64) float64 { return 1 / (a * a * a * p.Hubble(a)) }
	return integrate(f, a1, a2)
}

// KickFactor returns the symplectic kick integral int_{a1}^{a2} da /
// (a^2 H(a)) used to advance canonical momenta with the comoving
// accelerations.
func (p Params) KickFactor(a1, a2 float64) float64 {
	f := func(a float64) float64 { return 1 / (a * a * p.Hubble(a)) }
	return integrate(f, a1, a2)
}

// GrowthFactor returns the linear growth factor D(a) normalized to D(1) = 1,
// obtained by integrating the growth ODE
//
//	D'' + (2 + dlnH/dlna) D' - (3/2) Omega_m(a) D = 0
//
// in ln a with the full background (including radiation when enabled).
func (p Params) GrowthFactor(a float64) float64 {
	d, _ := p.growthODE(a)
	d1, _ := p.growthODE(1)
	return d / d1
}

// GrowthRate returns f = dlnD/dlna at scale factor a.
func (p Params) GrowthRate(a float64) float64 {
	d, dp := p.growthODE(a)
	return dp / d
}

// growthODE integrates the growth ODE from deep in matter domination to a,
// returning (D, dD/dlna) with arbitrary normalization.
func (p Params) growthODE(a float64) (float64, float64) {
	const aStart = 1e-4
	if a <= aStart {
		return a, a
	}
	lnaStart := math.Log(aStart)
	lna := math.Log(a)
	n := 2000
	h := (lna - lnaStart) / float64(n)
	// Initial conditions: D proportional to a in matter domination.
	d := aStart
	dp := aStart
	deriv := func(lna, d, dp float64) (float64, float64) {
		aa := math.Exp(lna)
		om := p.OmegaMatterAt(aa)
		dlnH := p.dlnHdlna(aa)
		return dp, -(2+dlnH)*dp + 1.5*om*d
	}
	for i := 0; i < n; i++ {
		x := lnaStart + float64(i)*h
		k1d, k1p := deriv(x, d, dp)
		k2d, k2p := deriv(x+h/2, d+h/2*k1d, dp+h/2*k1p)
		k3d, k3p := deriv(x+h/2, d+h/2*k2d, dp+h/2*k2p)
		k4d, k4p := deriv(x+h, d+h*k3d, dp+h*k3p)
		d += h / 6 * (k1d + 2*k2d + 2*k3d + k4d)
		dp += h / 6 * (k1p + 2*k2p + 2*k3p + k4p)
	}
	return d, dp
}

func (p Params) dlnHdlna(a float64) float64 {
	const eps = 1e-5
	return (math.Log(p.E(a*(1+eps))) - math.Log(p.E(a*(1-eps)))) / (2 * eps)
}
