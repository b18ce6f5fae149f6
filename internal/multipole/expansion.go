package multipole

import (
	"math"

	"twohot/internal/vec"
)

// Expansion is a Cartesian multipole expansion of a mass distribution about a
// center: M_alpha = sum_j m_j (y_j - center)^alpha, together with the
// quantities needed by the Salmon–Warren error bounds (absolute moments B_n
// and the cell radius bmax).
//
// Note that 2HOT expands about the geometric cell center (not the center of
// mass) so that the background-subtraction moments of a uniform cube can be
// combined with the particle moments; dipole terms are therefore present.
type Expansion struct {
	P      int
	Center vec.V3
	M      []float64 // multipole moments, indexed per Table(P)
	B      []float64 // absolute moments B_n = sum_j m_j |d_j|^n, n = 0..P+1
	Bmax   float64   // maximum |d_j| over contributing bodies
	Mass   float64   // total (signed) mass = M_0
	Norms  []float64 // per-order contraction norms, filled by FinalizeNorms
}

// NewExpansion returns an empty expansion of order p about the given center.
func NewExpansion(p int, center vec.V3) *Expansion {
	return &Expansion{
		P:      p,
		Center: center,
		M:      make([]float64, NumTerms(p)),
		B:      make([]float64, p+2),
	}
}

// CopyFrom makes e a value copy of src (same order required): moments,
// absolute moments, Bmax, mass, center and the finalized norms.  A copied
// expansion is bit-identical to recomputing src's moments from the same
// operands, which is what the tree build's subtree-reuse path relies on when
// it transplants the moments of an unchanged cell instead of re-deriving
// them.
func (e *Expansion) CopyFrom(src *Expansion) {
	if e.P != src.P {
		panic("multipole: CopyFrom across expansion orders")
	}
	e.Center = src.Center
	copy(e.M, src.M)
	copy(e.B, src.B)
	e.Bmax = src.Bmax
	e.Mass = src.Mass
	e.Norms = append(e.Norms[:0], src.Norms...)
}

// AddParticle accumulates a point mass at position pos (P2M).
func (e *Expansion) AddParticle(pos vec.V3, m float64) {
	t := Table(e.P)
	d := pos.Sub(e.Center)
	// Monomial powers d^alpha computed incrementally per order.
	pow := powers(e.P, d)
	for i, mi := range t.Idx {
		e.M[i] += m * pow[0][mi[0]] * pow[1][mi[1]] * pow[2][mi[2]]
	}
	r := d.Norm()
	if r > e.Bmax {
		e.Bmax = r
	}
	am := math.Abs(m)
	rp := 1.0
	for n := 0; n <= e.P+1; n++ {
		e.B[n] += am * rp
		rp *= r
	}
	e.Mass += m
}

// AddParticles accumulates a set of point masses (P2M over a slice).
func (e *Expansion) AddParticles(pos []vec.V3, m []float64) {
	for i := range pos {
		e.AddParticle(pos[i], m[i])
	}
}

// powers returns per-dimension power tables pow[dim][k] = d[dim]^k for
// k = 0..p, by value so the P2M / M2M / L2P operators stay off the heap.
func powers(p int, d vec.V3) (pow [3][MaxTableOrder + 1]float64) {
	for c := 0; c < 3; c++ {
		pow[c][0] = 1
		for k := 1; k <= p; k++ {
			pow[c][k] = pow[c][k-1] * d[c]
		}
	}
	return pow
}

// AddShifted accumulates a child expansion into this one, translating the
// child moments to this expansion's center (M2M):
//
//	M'_alpha(z') = sum_{beta <= alpha} C(alpha,beta) (z - z')^{alpha-beta} M_beta(z)
func (e *Expansion) AddShifted(child *Expansion) {
	if child.P != e.P {
		panic("multipole: M2M order mismatch")
	}
	t := Table(e.P)
	s := child.Center.Sub(e.Center) // z - z'
	pow := powers(e.P, s)
	for ia, a := range t.Idx {
		sum := 0.0
		for ib, b := range t.Idx {
			if b[0] > a[0] || b[1] > a[1] || b[2] > a[2] {
				continue
			}
			c := Binomial3(a, b)
			sum += c * pow[0][a[0]-b[0]] * pow[1][a[1]-b[1]] * pow[2][a[2]-b[2]] * child.M[ib]
		}
		e.M[ia] += sum
	}
	// Absolute moments: bodies of the child are at distance at most
	// |s| + child.Bmax from the new center.  Use the binomial bound
	// B'_n <= sum_k C(n,k) |s|^{n-k} B_k, which is exact for collinear
	// worst cases and conservative otherwise.
	smag := s.Norm()
	for n := 0; n <= e.P+1; n++ {
		sum := 0.0
		for k := 0; k <= n; k++ {
			sum += binom(n, k) * math.Pow(smag, float64(n-k)) * child.B[k]
		}
		e.B[n] += sum
	}
	if b := smag + child.Bmax; b > e.Bmax {
		e.Bmax = b
	}
	e.Mass += child.Mass
}

// AddExpansion adds another expansion with the same center term by term
// (used for background subtraction: particle moments + (negative) uniform
// cube moments).  Absolute moments are accumulated as well so the error
// bound covers the combined source.
func (e *Expansion) AddExpansion(o *Expansion) {
	if o.P != e.P {
		panic("multipole: order mismatch")
	}
	for i := range e.M {
		e.M[i] += o.M[i]
	}
	for n := range e.B {
		e.B[n] += o.B[n]
	}
	if o.Bmax > e.Bmax {
		e.Bmax = o.Bmax
	}
	e.Mass += o.Mass
}

// Result is the outcome of evaluating an expansion at a field point: the
// kernel sum S = sum_j m_j/|x-y_j| (so the physical potential is -G*S) and
// the acceleration a = grad S (attractive for positive masses).
type Result struct {
	Phi float64 // kernel sum S; potential = -G*S
	Acc vec.V3  // acceleration (G=1), i.e. grad S
}

// Evaluate computes the field of the expansion at position x (M2P).
// R = x - center must be outside the source distribution for the expansion to
// converge.
func (e *Expansion) Evaluate(x vec.V3) Result {
	var scratch [maxScratch]float64
	return e.EvaluateTruncated(x, e.P, scratch[:])
}

// ScratchSize returns the derivative-tensor scratch length needed to evaluate
// an expansion of order p.
func ScratchSize(p int) int { return NumTerms(p + 1) }

// maxScratch is ScratchSize of the highest order that can be evaluated
// (NumTerms(MaxTableOrder)), as a constant for stack arrays.
const maxScratch = (MaxTableOrder + 1) * (MaxTableOrder + 2) * (MaxTableOrder + 3) / 6

// Local is a local (Taylor) expansion of the far field about a center:
// S(center + h) = sum_gamma (1/gamma!) h^gamma L_gamma.
type Local struct {
	P      int
	Center vec.V3
	L      []float64
}

// NewLocal returns an empty local expansion of order p.
func NewLocal(p int, center vec.V3) *Local {
	return &Local{P: p, Center: center, L: make([]float64, NumTerms(p))}
}

// AddM2L accumulates the far field of a source expansion into the local
// expansion using a (possibly lattice-summed) derivative tensor evaluated at
// the separation between the local center and the source center.  The tensor
// must have order at least loc.P + src.P.
//
//	L_gamma = sum_alpha (-1)^{|alpha|}/alpha! M_alpha T_{alpha+gamma}
func (loc *Local) AddM2L(src *Expansion, T DerivTensor) {
	if T.P < loc.P+src.P {
		panic("multipole: M2L derivative tensor order too small")
	}
	tT := Table(T.P)
	tS := Table(src.P)
	tL := Table(loc.P)
	for ig, g := range tL.Idx {
		sum := 0.0
		for ia, a := range tS.Idx {
			m := src.M[ia]
			if m == 0 {
				continue
			}
			idx := MultiIndex{a[0] + g[0], a[1] + g[1], a[2] + g[2]}
			sum += tS.Coef[ia] * m * T.D[tT.Pos[idx]]
		}
		loc.L[ig] += sum
	}
}

// Evaluate computes the kernel sum and acceleration represented by the local
// expansion at position x (L2P).
func (loc *Local) Evaluate(x vec.V3) Result {
	t := Table(loc.P)
	h := x.Sub(loc.Center)
	pow := powers(loc.P, h)
	var res Result
	for i, g := range t.Idx {
		c := t.InvAF[i] * loc.L[i]
		if c == 0 {
			continue
		}
		res.Phi += c * pow[0][g[0]] * pow[1][g[1]] * pow[2][g[2]]
		// Gradient: d/dx_ax of h^gamma is gamma_ax h^{gamma - e_ax}.
		for ax := 0; ax < 3; ax++ {
			if g[ax] == 0 {
				continue
			}
			gm := g
			gm[ax]--
			res.Acc[ax] += c * float64(g[ax]) * pow[0][gm[0]] * pow[1][gm[1]] * pow[2][gm[2]]
		}
	}
	return res
}
