// Package transfer provides the linear matter power spectrum used to generate
// initial conditions and to normalize the mass-function fits.  The paper
// obtains P(k) from the CLASS Boltzmann code; the stdlib-only substitution
// here is the Eisenstein & Hu (1998) analytic transfer function, in both its
// full (baryon acoustic oscillation) and "no-wiggle" forms.  Every experiment
// in the paper compares runs that share the same input spectrum, so the few
// per-cent difference between EH98 and CLASS does not affect the reproduced
// shapes.
package transfer

import (
	"math"

	"twohot/internal/cosmo"
)

// Variant selects the transfer-function approximation.
type Variant int

const (
	// EisensteinHu is the full EH98 fitting formula including baryon
	// acoustic oscillations.
	EisensteinHu Variant = iota
	// EisensteinHuNoWiggle is the smooth ("zero baryon oscillation") form.
	EisensteinHuNoWiggle
	// BBKS is the classic Bardeen et al. (1986) form with the Sugiyama
	// (1995) shape parameter, retained for cross-checks against older
	// simulations (e.g. the WMAP1-era runs of Figure 8).
	BBKS
)

// sigma(R) is a trapezoid sum over sigmaN intervals of ln k in [-9, 6].
const sigmaLnkMin, sigmaLnkMax, sigmaN = -9.0, 6.0, 2048

// Spectrum evaluates the linear matter power spectrum for a cosmology,
// normalized to sigma8 at z=0.  Its cosmology and variant are fixed at
// construction: the sigma(R) table is built from them.
type Spectrum struct {
	par     cosmo.Params
	variant Variant
	eh      ehParams
	norm    float64      // amplitude so that sigma(8 Mpc/h) = sigma8
	sig     []sigmaPoint // the R-independent integrand factors of sigma(R)
}

// sigmaPoint is one ln k node of the sigma(R) integral: k, k^ns and T(k).
type sigmaPoint struct{ k, pow, t float64 }

// NewSpectrum builds a normalized spectrum for the given cosmology.
func NewSpectrum(par cosmo.Params, v Variant) *Spectrum {
	s := &Spectrum{par: par, variant: v, eh: newEHParams(par), sig: make([]sigmaPoint, sigmaN+1)}
	h := (sigmaLnkMax - sigmaLnkMin) / sigmaN
	for i := range s.sig {
		k := math.Exp(sigmaLnkMin + float64(i)*h)
		s.sig[i] = sigmaPoint{k, math.Pow(k, par.Ns), s.Transfer(k)}
	}
	s.norm = 1
	sig := s.SigmaR(8)
	s.norm = (par.Sigma8 / sig) * (par.Sigma8 / sig)
	return s
}

// Transfer returns the transfer function T(k) for k in h/Mpc.
func (s *Spectrum) Transfer(k float64) float64 {
	if k <= 0 {
		return 1
	}
	kMpc := k * s.par.H // EH98 formulas use k in 1/Mpc
	switch s.variant {
	case EisensteinHu:
		return s.eh.full(kMpc)
	case EisensteinHuNoWiggle:
		return s.eh.noWiggle(kMpc)
	case BBKS:
		return s.bbks(k)
	default:
		return s.eh.full(kMpc)
	}
}

// P returns the linear power spectrum at z=0 for k in h/Mpc, in (Mpc/h)^3.
func (s *Spectrum) P(k float64) float64 {
	if k <= 0 {
		return 0
	}
	t := s.Transfer(k)
	return s.norm * math.Pow(k, s.par.Ns) * t * t
}

// SigmaR returns the rms linear density fluctuation in top-hat spheres of
// comoving radius R (Mpc/h) at z=0.  Each term is P(k) W(kR)^2 k^3 (the
// extra k from the dlnk measure), with P's factors multiplied in P's order.
func (s *Spectrum) SigmaR(R float64) float64 {
	h := (sigmaLnkMax - sigmaLnkMin) / sigmaN
	sum := 0.0
	for i, p := range s.sig {
		k, t := p.k, p.t
		w := topHatWindow(k * R)
		f := s.norm * p.pow * t * t * w * w * k * k * k
		weight := 1.0
		if i == 0 || i == sigmaN {
			weight = 0.5
		}
		sum += weight * f
	}
	sum *= h / (2 * math.Pi * math.Pi)
	return math.Sqrt(sum)
}

// SigmaM returns sigma(M) for halo mass M (1e10 Msun/h) at z=0, using the
// mean matter density to convert mass to Lagrangian radius.
func (s *Spectrum) SigmaM(m float64) float64 {
	rho := s.par.MeanMatterDensity()
	r := math.Cbrt(3 * m / (4 * math.Pi * rho))
	return s.SigmaR(r)
}

// topHatWindow is the Fourier transform of the real-space spherical top hat.
func topHatWindow(x float64) float64 {
	if x < 1e-4 {
		return 1 - x*x/10
	}
	return 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
}

func (s *Spectrum) bbks(k float64) float64 {
	p := s.par
	gamma := p.OmegaM * p.H * math.Exp(-p.OmegaB*(1+math.Sqrt(2*p.H)/p.OmegaM))
	q := k / gamma
	return math.Log(1+2.34*q) / (2.34 * q) *
		math.Pow(1+3.89*q+math.Pow(16.1*q, 2)+math.Pow(5.46*q, 3)+math.Pow(6.71*q, 4), -0.25)
}

// ehParams caches the Eisenstein & Hu (1998) fit coefficients.
type ehParams struct {
	omh2, obh2 float64
	fBaryon    float64
	theta      float64

	zEq, kEq      float64
	zDrag         float64
	soundHorizon  float64
	kSilk         float64
	alphaC, betaC float64
	alphaB, betaB float64
	betaNode      float64

	// no-wiggle
	sNW, alphaGamma float64
}

func newEHParams(p cosmo.Params) ehParams {
	var e ehParams
	h := p.H
	e.omh2 = p.OmegaM * h * h
	e.obh2 = p.OmegaB * h * h
	e.fBaryon = p.OmegaB / p.OmegaM
	tcmb := p.TCMB
	if tcmb == 0 {
		tcmb = 2.7255
	}
	e.theta = tcmb / 2.7
	t4 := math.Pow(e.theta, 4)

	e.zEq = 2.50e4 * e.omh2 / t4
	e.kEq = 7.46e-2 * e.omh2 / (e.theta * e.theta)

	b1 := 0.313 * math.Pow(e.omh2, -0.419) * (1 + 0.607*math.Pow(e.omh2, 0.674))
	b2 := 0.238 * math.Pow(e.omh2, 0.223)
	e.zDrag = 1291 * math.Pow(e.omh2, 0.251) / (1 + 0.659*math.Pow(e.omh2, 0.828)) *
		(1 + b1*math.Pow(e.obh2, b2))

	rd := 31.5 * e.obh2 / t4 * (1e3 / e.zDrag)
	req := 31.5 * e.obh2 / t4 * (1e3 / e.zEq)
	e.soundHorizon = 2.0 / (3.0 * e.kEq) * math.Sqrt(6.0/req) *
		math.Log((math.Sqrt(1+rd)+math.Sqrt(rd+req))/(1+math.Sqrt(req)))

	e.kSilk = 1.6 * math.Pow(e.obh2, 0.52) * math.Pow(e.omh2, 0.73) *
		(1 + math.Pow(10.4*e.omh2, -0.95))

	a1 := math.Pow(46.9*e.omh2, 0.670) * (1 + math.Pow(32.1*e.omh2, -0.532))
	a2 := math.Pow(12.0*e.omh2, 0.424) * (1 + math.Pow(45.0*e.omh2, -0.582))
	e.alphaC = math.Pow(a1, -e.fBaryon) * math.Pow(a2, -e.fBaryon*e.fBaryon*e.fBaryon)

	bb1 := 0.944 / (1 + math.Pow(458*e.omh2, -0.708))
	bb2 := math.Pow(0.395*e.omh2, -0.0266)
	fc := 1 - e.fBaryon
	e.betaC = 1 / (1 + bb1*(math.Pow(fc, bb2)-1))

	y := (1 + e.zEq) / (1 + e.zDrag)
	gy := y * (-6*math.Sqrt(1+y) + (2+3*y)*math.Log((math.Sqrt(1+y)+1)/(math.Sqrt(1+y)-1)))
	e.alphaB = 2.07 * e.kEq * e.soundHorizon * math.Pow(1+rd, -0.75) * gy

	e.betaB = 0.5 + e.fBaryon + (3-2*e.fBaryon)*math.Sqrt(math.Pow(17.2*e.omh2, 2)+1)
	e.betaNode = 8.41 * math.Pow(e.omh2, 0.435)

	// No-wiggle shape.
	e.sNW = 44.5 * math.Log(9.83/e.omh2) / math.Sqrt(1+10*math.Pow(e.obh2, 0.75))
	e.alphaGamma = 1 - 0.328*math.Log(431*e.omh2)*e.fBaryon +
		0.38*math.Log(22.3*e.omh2)*e.fBaryon*e.fBaryon

	return e
}

// t0tilde is the pressureless CDM transfer shape of EH98 eq. (19-20).
func (e ehParams) t0tilde(k, alphaC, betaC float64) float64 {
	q := k / (13.41 * e.kEq)
	c := 14.2/alphaC + 386.0/(1+69.9*math.Pow(q, 1.08))
	l := math.Log(math.E + 1.8*betaC*q)
	return l / (l + c*q*q)
}

// full evaluates the full EH98 transfer function; k in 1/Mpc.
func (e ehParams) full(k float64) float64 {
	if k <= 0 {
		return 1
	}
	ks := k * e.soundHorizon
	// CDM part.
	f := 1 / (1 + math.Pow(ks/5.4, 4))
	tc := f*e.t0tilde(k, 1, e.betaC) + (1-f)*e.t0tilde(k, e.alphaC, e.betaC)
	// Baryon part.
	sTilde := e.soundHorizon / math.Cbrt(1+math.Pow(e.betaNode/ks, 3))
	x := k * sTilde
	var j0 float64
	if x < 1e-6 {
		j0 = 1 - x*x/6
	} else {
		j0 = math.Sin(x) / x
	}
	tb := (e.t0tilde(k, 1, 1)/(1+math.Pow(ks/5.2, 2)) +
		e.alphaB/(1+math.Pow(e.betaB/ks, 3))*math.Exp(-math.Pow(k/e.kSilk, 1.4))) * j0
	return e.fBaryon*tb + (1-e.fBaryon)*tc
}

// noWiggle evaluates the smooth EH98 form; k in 1/Mpc.
func (e ehParams) noWiggle(k float64) float64 {
	if k <= 0 {
		return 1
	}
	// q_eff = k theta^2 / (Omega_m h^2 * shape), with the shape suppression
	// of the effective Gamma from EH98 eq. (30-31).
	shape := e.alphaGamma + (1-e.alphaGamma)/(1+math.Pow(0.43*k*e.sNW, 4))
	q := k * e.theta * e.theta / (e.omh2 * shape)
	l0 := math.Log(2*math.E + 1.8*q)
	c0 := 14.2 + 731.0/(1+62.5*q)
	return l0 / (l0 + c0*q*q)
}
