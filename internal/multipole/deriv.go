package multipole

import (
	"math"

	"twohot/internal/vec"
)

// DerivTensor holds the partial derivatives D_alpha = d^alpha (1/r) of the
// Newtonian Green's function evaluated at a separation R, for all
// |alpha| <= P.  It is the "source side" of an M2P interaction and the
// translation operator of an M2L interaction.
type DerivTensor struct {
	P int
	D []float64 // indexed per Table(P)
}

// Derivatives evaluates D_alpha(R) for |alpha| <= p using the standard
// recurrence for derivatives of 1/r:
//
//	|n| r^2 D_n = -(2|n|-1) sum_i n_i R_i D_{n-e_i} - (|n|-1) sum_i n_i(n_i-1) D_{n-2e_i}
//
// which follows from Laplace's equation applied to r^2 * (1/r).
func Derivatives(r vec.V3, p int) DerivTensor {
	d := make([]float64, NumTerms(p))
	DerivativesInto(r, p, d)
	return DerivTensor{P: p, D: d}
}

// DerivativesInto is like Derivatives but writes into a caller-provided slice
// of length NumTerms(p), avoiding allocation in hot loops.
func DerivativesInto(r vec.V3, p int, d []float64) {
	derivativesInto(Table(p), r, p, d)
}

// derivativesInto interprets the recurrence table of t (any table of order at
// least p: the enumeration is order-independent) up to order p.
func derivativesInto(t *IndexTable, r vec.V3, p int, d []float64) {
	r2 := r.Norm2()
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d[0] = 1 / math.Sqrt(r2)
	for n := 1; n <= p; n++ {
		scale := invR2 / float64(n)
		for i := t.Offset[n]; i < t.Offset[n+1]; i++ {
			sum := 0.0
			for _, term := range t.DRec[i] {
				v := term.Coef * d[term.Src]
				if term.Axis >= 0 {
					v *= r[term.Axis]
				}
				sum += v
			}
			d[i] = sum * scale
		}
	}
}

// Add accumulates other into the tensor (used to sum lattice replicas).
func (d *DerivTensor) Add(other DerivTensor) {
	if d.P != other.P {
		panic("multipole: DerivTensor order mismatch")
	}
	for i := range d.D {
		d.D[i] += other.D[i]
	}
}

// Zero returns a zero derivative tensor of order p.
func ZeroDeriv(p int) DerivTensor {
	return DerivTensor{P: p, D: make([]float64, NumTerms(p))}
}
