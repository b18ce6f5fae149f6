package cosmo

import (
	"math"
	"testing"
)

func TestPresetsAreConsistent(t *testing.T) {
	for _, name := range []string{"planck2013", "wmap7", "wmap1", "eds"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if math.Abs(p.E(1)-1) > 1e-12 {
			t.Errorf("%s: E(1) = %g, want 1", name, p.E(1))
		}
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Error("expected error for unknown preset")
	}
}

func TestCriticalDensityValue(t *testing.T) {
	// rho_crit = 2.775e11 Msun/h / (Mpc/h)^3 = 27.75 in internal units.
	if math.Abs(RhoCrit0-27.75)/27.75 > 1e-3 {
		t.Errorf("RhoCrit0 = %g", RhoCrit0)
	}
}

func TestAgeOfUniverse(t *testing.T) {
	p := Planck2013()
	age := ageGyr(p, 1)
	if age < 13.5 || age > 14.2 {
		t.Errorf("Planck 2013 age of the universe = %.2f Gyr, expected about 13.8", age)
	}
	// The paper's point: dropping radiation changes the age by a few Myr.
	noRad := p
	noRad.IncludeRadiation = false
	noRad.OmegaG, noRad.OmegaNu = 0, 0
	noRad.OmegaK = 1 - noRad.OmegaM - noRad.OmegaL
	diffMyr := math.Abs(ageGyr(noRad, 1)-age) * 1000
	if diffMyr < 1 || diffMyr > 20 {
		t.Errorf("age difference without radiation = %.1f Myr, expected a few Myr", diffMyr)
	}
}

func TestGrowthFactorProperties(t *testing.T) {
	p := Planck2013()
	if math.Abs(p.GrowthFactor(1)-1) > 1e-12 {
		t.Error("GrowthFactor(1) must be 1")
	}
	// Monotonic growth.
	prev := 0.0
	for _, a := range []float64{0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0} {
		d := p.GrowthFactor(a)
		if d <= prev {
			t.Errorf("growth factor not monotonic at a=%g", a)
		}
		prev = d
	}
	// Einstein-de Sitter: D(a) = a exactly (without radiation).
	eds := EdS()
	eds.IncludeRadiation = false
	eds.OmegaG, eds.OmegaNu = 0, 0
	eds.OmegaK = 0
	for _, a := range []float64{0.1, 0.5, 1.0} {
		if math.Abs(eds.GrowthFactor(a)-a)/a > 5e-3 {
			t.Errorf("EdS growth at a=%g: %g", a, eds.GrowthFactor(a))
		}
	}
	// LambdaCDM growth is suppressed relative to EdS at late times.
	if p.GrowthFactor(0.5) <= 0.5 {
		t.Error("LCDM growth at a=0.5 should exceed a (normalized to 1 today)")
	}
}

func TestRadiationEffectOnGrowth(t *testing.T) {
	// The paper: the linear growth factor from z=99 changes by almost 5% if
	// photons and massless neutrinos are not treated.
	p := Planck2013()
	noRad := p
	noRad.IncludeRadiation = false
	noRad.OmegaG, noRad.OmegaNu = 0, 0
	noRad.OmegaK = 1 - noRad.OmegaM - noRad.OmegaL
	a99 := 1.0 / 100.0
	g1 := 1 / p.GrowthFactor(a99)     // growth from z=99 to 0 with radiation
	g2 := 1 / noRad.GrowthFactor(a99) // without
	rel := math.Abs(g1-g2) / g2
	t.Logf("growth from z=99: with radiation %.2f, without %.2f (%.1f%% difference)", g1, g2, 100*rel)
	if rel < 0.01 || rel > 0.10 {
		t.Errorf("radiation effect on growth from z=99 is %.2f%%, expected a few percent", 100*rel)
	}
}

func TestGrowthAnalyticMatchesODE(t *testing.T) {
	p := Planck2013()
	p.IncludeRadiation = false
	p.OmegaG, p.OmegaNu = 0, 0
	p.OmegaK = 1 - p.OmegaM - p.OmegaL
	for _, a := range []float64{0.1, 0.3, 0.7, 1.0} {
		ode := p.GrowthFactor(a)
		ana := growthFactorAnalytic(p, a)
		if math.Abs(ode-ana)/ana > 5e-3 {
			t.Errorf("a=%g: ODE growth %g vs analytic %g", a, ode, ana)
		}
	}
}

func TestDriftKickFactors(t *testing.T) {
	p := EdS()
	p.IncludeRadiation = false
	p.OmegaG, p.OmegaNu = 0, 0
	p.OmegaK = 0
	// For EdS, H = H0 a^{-3/2}:
	//   kick  = int da/(a^2 H) = (2/H0)(sqrt(a2) - sqrt(a1))
	//   drift = int da/(a^3 H) = (2/H0)(1/sqrt(a1) - 1/sqrt(a2))
	a1, a2 := 0.25, 0.36
	kick := p.KickFactor(a1, a2)
	drift := p.DriftFactor(a1, a2)
	wantKick := 2.0 / H0 * (math.Sqrt(a2) - math.Sqrt(a1))
	wantDrift := 2.0 / H0 * (1/math.Sqrt(a1) - 1/math.Sqrt(a2))
	if math.Abs(kick-wantKick)/wantKick > 1e-6 {
		t.Errorf("kick factor %g, want %g", kick, wantKick)
	}
	if math.Abs(drift-wantDrift)/wantDrift > 1e-6 {
		t.Errorf("drift factor %g, want %g", drift, wantDrift)
	}
	// Factors over adjacent intervals must add.
	mid := 0.3
	if math.Abs(p.KickFactor(a1, mid)+p.KickFactor(mid, a2)-kick) > 1e-9*kick {
		t.Error("kick factors are not additive")
	}
}

func TestParticleMass(t *testing.T) {
	p := Planck2013()
	m := p.ParticleMass(1000, 1024*1024*1024)
	// 1 Gpc/h box with 1024^3 particles: ~8e10 Msun/h per particle, i.e. ~8
	// internal mass units.
	if m < 4 || m > 12 {
		t.Errorf("particle mass = %g internal units", m)
	}
}

func TestGrowthRatePositive(t *testing.T) {
	p := Planck2013()
	f := p.GrowthRate(1)
	// f ~ Omega_m^0.55 ~ 0.52 for Planck today.
	if f < 0.4 || f > 0.7 {
		t.Errorf("growth rate today = %g", f)
	}
}

// growthFactorAnalytic returns the classic integral expression for the growth
// factor, valid for LambdaCDM without radiation:
//
//	D(a) proportional to H(a) int_0^a da' / (a' H(a'))^3
//
// normalized to D(1) = 1: the oracle GrowthFactor's ODE is pinned to.
func growthFactorAnalytic(p Params, a float64) float64 {
	noRad := p
	noRad.IncludeRadiation = false
	noRad.OmegaG, noRad.OmegaNu = 0, 0
	noRad.OmegaK = 1 - noRad.OmegaM - noRad.OmegaL
	g := func(a float64) float64 {
		f := func(x float64) float64 {
			if x < 1e-9 {
				return 0
			}
			e := noRad.E(x)
			return 1 / (x * x * x * e * e * e)
		}
		return noRad.E(a) * integrate(f, 1e-9, a)
	}
	return g(a) / g(1)
}

// gyrPerTimeUnit converts internal time units ((Mpc/h)/(km/s)) to Gyr/h.
const gyrPerTimeUnit = 977.8139

// ageGyr returns the age of the universe at scale factor a in Gyr (not
// Gyr/h): the integral of da / (a H(a)) in internal time units, converted.
func ageGyr(p Params, a float64) float64 {
	f := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 / (x * p.Hubble(x))
	}
	return integrate(f, 1e-9, a) * gyrPerTimeUnit / p.H
}
