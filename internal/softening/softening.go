// Package softening implements the force-smoothing kernels of Section 2.5:
// the Plummer kernel, the cubic-spline kernel of GADGET-2, and a compensating
// kernel of the Dehnen (2001) family (playing the role of his K1) whose force
// exceeds Newtonian near the kernel edge so that the net force bias of the
// smoothing is reduced.  2HOT uses the compensating kernel for production
// runs and the others when comparing against other codes.
package softening

import "math"

// Kernel identifies a force-smoothing law.
type Kernel int

const (
	// Plummer softening: F = m r / (r^2 + eps^2)^{3/2}.  eps is the Plummer
	// scale.
	Plummer Kernel = iota
	// Spline is the cubic-spline softening used by GADGET-2; the force is
	// exactly Newtonian beyond r = h (h is the kernel support handed to the
	// functions below).
	Spline
	// DehnenK1 is a compensating kernel of the Dehnen (2001) family: the
	// density changes sign inside the support so the enclosed mass (and
	// hence the force) overshoots Newtonian near the edge, cancelling the
	// interior bias.  We use the polynomial member with density
	// proportional to (1-x^2)(1-1.5x^2).
	DehnenK1
	// None disables smoothing (pure Newtonian 1/r^2).
	None
)

func (k Kernel) String() string {
	switch k {
	case Plummer:
		return "plummer"
	case Spline:
		return "spline"
	case DehnenK1:
		return "dehnen-k1"
	case None:
		return "none"
	default:
		return "unknown"
	}
}

// ParseKernel maps a configuration string to a Kernel.
func ParseKernel(s string) (Kernel, bool) {
	switch s {
	case "plummer":
		return Plummer, true
	case "spline":
		return Spline, true
	case "dehnen-k1", "dehnen", "k1":
		return DehnenK1, true
	case "none", "":
		return None, true
	default:
		return None, false
	}
}

// ForceFactor returns g(r) such that the pairwise acceleration is
// a = m * g(r) * (vector from sink to source); g approaches 1/r^3 for
// r >> eps and every kernel except Plummer is exactly Newtonian beyond its
// support.
func ForceFactor(k Kernel, r, eps float64) float64 {
	switch k {
	case None:
		if r == 0 {
			return 0
		}
		return 1 / (r * r * r)
	case Plummer:
		d2 := r*r + eps*eps
		if d2 == 0 {
			return 0
		}
		return 1 / (d2 * math.Sqrt(d2))
	case Spline:
		return splineForceFactor(r, eps)
	case DehnenK1:
		return compensatingForceFactor(r, eps)
	default:
		if r == 0 {
			return 0
		}
		return 1 / (r * r * r)
	}
}

// PotentialFactor returns p(r) such that the pairwise kernel-sum contribution
// is m * p(r); p approaches 1/r at large r.  (The physical potential is the
// negative of the kernel sum.)
func PotentialFactor(k Kernel, r, eps float64) float64 {
	switch k {
	case None:
		if r == 0 {
			return 0
		}
		return 1 / r
	case Plummer:
		return 1 / math.Sqrt(r*r+eps*eps)
	case Spline:
		return splinePotentialFactor(r, eps)
	case DehnenK1:
		return compensatingPotentialFactor(r, eps)
	default:
		if r == 0 {
			return 0
		}
		return 1 / r
	}
}

// Factors returns ForceFactor and PotentialFactor together.  The batched
// particle-particle kernels call it once per pair instead of switching on the
// kernel twice; for None and Plummer the shared intermediates (the inverse
// distance and the softened distance) are computed once.  The results are
// bit-identical to the two separate calls for every kernel, which the
// traversal equivalence suite relies on.
func Factors(k Kernel, r, eps float64) (ff, pf float64) {
	switch k {
	case None:
		if r == 0 {
			return 0, 0
		}
		return 1 / (r * r * r), 1 / r
	case Plummer:
		d2 := r*r + eps*eps
		if d2 == 0 {
			// ForceFactor guards the division; PotentialFactor does not and
			// yields +Inf, preserved here for exact agreement.
			return 0, math.Inf(1)
		}
		s := math.Sqrt(d2)
		return 1 / (d2 * s), 1 / s
	case Spline:
		return splineForceFactor(r, eps), splinePotentialFactor(r, eps)
	case DehnenK1:
		return compensatingForceFactor(r, eps), compensatingPotentialFactor(r, eps)
	default:
		if r == 0 {
			return 0, 0
		}
		return 1 / (r * r * r), 1 / r
	}
}

// Support returns the pair distance from which on Factors(k, r, eps) is
// exactly the Newtonian (1/(r*r*r), 1/r), with those expressions: the kernel
// support of the compact kernels, 0 without smoothing, +Inf for Plummer.
// Pair loops evaluate the Newtonian factors inline beyond it.
func Support(k Kernel, eps float64) float64 {
	switch k {
	case Plummer:
		return math.Inf(1)
	case Spline, DehnenK1:
		return eps
	default:
		return 0
	}
}

// splineForceFactor follows GADGET-2: h is the spline support radius and the
// acceleration is m*g(r)*r with the piecewise polynomial below.
func splineForceFactor(r, h float64) float64 {
	if h <= 0 || r >= h {
		if r == 0 {
			return 0
		}
		return 1 / (r * r * r)
	}
	u := r / h
	h3 := h * h * h
	if u < 0.5 {
		return (10.666666666666666 + u*u*(32.0*u-38.4)) / h3
	}
	return (21.333333333333332 - 48.0*u + 38.4*u*u - 10.666666666666666*u*u*u - 0.06666666666666667/(u*u*u)) / h3
}

func splinePotentialFactor(r, h float64) float64 {
	if h <= 0 || r >= h {
		if r == 0 {
			return 0
		}
		return 1 / r
	}
	u := r / h
	var wp float64
	if u < 0.5 {
		wp = -2.8 + u*u*(5.333333333333333+u*u*(6.4*u-9.6))
	} else {
		wp = -3.2 + 0.06666666666666667/u + u*u*(10.666666666666666+u*(-16.0+u*(9.6-2.1333333333333333*u)))
	}
	return -wp / h
}

// Compensating kernel: density rho(x) = A (1 - x^2)(1 - a x^2) for x = r/h < 1
// with a = 1.5, normalized to unit mass.  The enclosed mass peaks at about
// 1.09 of the total near x = 0.82, so the force there exceeds Newtonian —
// exactly the compensation property the paper adopts from Dehnen (2001).
const compA = 1.5

// compNorm is (14 - 6a)/105, the normalized total-mass integral.
const compNorm = (14.0 - 6.0*compA) / 105.0

func compEnclosed(u float64) float64 {
	u3 := u * u * u
	u5 := u3 * u * u
	u7 := u5 * u * u
	return u3/3 - (1+compA)*u5/5 + compA*u7/7
}

func compOuterPotential(u float64) float64 {
	// g(x) = x^2/2 - (1+a) x^4/4 + a x^6/6
	g := func(x float64) float64 {
		x2 := x * x
		x4 := x2 * x2
		x6 := x4 * x2
		return x2/2 - (1+compA)*x4/4 + compA*x6/6
	}
	return g(1) - g(u)
}

func compensatingForceFactor(r, h float64) float64 {
	if h <= 0 || r >= h {
		if r == 0 {
			return 0
		}
		return 1 / (r * r * r)
	}
	if r == 0 {
		return 0
	}
	u := r / h
	return compEnclosed(u) / compNorm / (r * r * r)
}

func compensatingPotentialFactor(r, h float64) float64 {
	if h <= 0 || r >= h {
		if r == 0 {
			return 0
		}
		return 1 / r
	}
	u := r / h
	if u == 0 {
		// Central potential: all mass outside.
		return compOuterPotential(0) / compNorm / h
	}
	return (compEnclosed(u)/u + compOuterPotential(u)) / compNorm / h
}
