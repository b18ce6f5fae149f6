package multipole

import "math"

// AccelErrorBound returns the Salmon–Warren style upper bound on the
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
func (e *Expansion) AccelErrorBound(d float64) float64 {
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

// BHAccept implements the classic Barnes–Hut opening criterion: the cell of
// size `size` at distance d is accepted when size/d < theta, with the
// additional WS93 safety that d must exceed bmax.
func BHAccept(size, bmax, d, theta float64) bool {
	if d <= bmax {
		return false
	}
	return size < theta*d
}
