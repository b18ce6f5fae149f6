package softening

import "math"

// TreePM force-split kernels (the GADGET-2-style Gaussian split the TreePM
// composite uses): the mesh long range carries the k-space Gaussian filter
// exp(-k^2 rs^2), and every real-space short-range interaction — pairwise or
// multipole — is damped by the complementary factors below so the two halves
// sum to the full Newtonian force.  With u = r/(2 rs):
//
//	potential:  1/r        -> erfc(u)/r
//	force:      1/r^2      -> [erfc(u) + (2u/sqrt(pi)) e^{-u^2}] / r^2
//
// The force factor is minus the derivative of the damped potential, so the
// split is exact for point masses.  Both the brute-force cell-list short
// range (internal/pm) and the tree-walk short range (internal/traverse)
// evaluate these through SplitFactors, keeping their per-pair arithmetic
// expression-identical — the property the small-N oracle comparison between
// the two paths relies on.

// SplitFactors returns the short-range damping factors at pair distance r for
// Gaussian split scale rs: ff multiplies the Newtonian (or softened) force
// factor, pf the potential factor.  The shared erfc and exponential are
// computed once.
func SplitFactors(r, rs float64) (ff, pf float64) {
	u := r / (2 * rs)
	pf = math.Erfc(u)
	ff = pf + 2*u/math.Sqrt(math.Pi)*math.Exp(-u*u)
	return ff, pf
}
