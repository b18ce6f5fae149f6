package multipole

import (
	"math"

	"twohot/internal/vec"
)

// FinalizeNorms computes and caches the contraction norms of the moments at
// every order,
//
//	Norm_n = sqrt( sum_{|alpha|=n} (n!/alpha!) M_alpha^2 ),
//
// which the absolute-error multipole acceptance criterion uses to estimate
// the size of the truncated terms.  Unlike the absolute moments B_n, these
// norms reflect the cancellation achieved by background subtraction: the
// delta moments of a nearly uniform cell are tiny even though its absolute
// moments are large, which is precisely why the 2HOT MAC accepts far more
// cells at a given tolerance once the background is removed.
//
// Call after the moments are final (the tree build does this); the traversal
// then reads the cached norms concurrently.
func (e *Expansion) FinalizeNorms() {
	t := Table(e.P)
	if cap(e.Norms) >= e.P+1 {
		e.Norms = e.Norms[:e.P+1] // every entry is overwritten below
	} else {
		e.Norms = make([]float64, e.P+1)
	}
	for n := 0; n <= e.P; n++ {
		sum := 0.0
		for i := t.Offset[n]; i < t.Offset[n+1]; i++ {
			w := t.Fact[n] * t.InvAF[i]
			sum += w * e.M[i] * e.M[i]
		}
		e.Norms[n] = math.Sqrt(sum)
	}
}

// AccelErrorEstimate returns an estimate of the acceleration error committed
// by truncating this expansion at order q (q <= P) when evaluated at distance
// d from the center.  For q < P the estimate uses the norm of the first
// neglected moments; for q = P (nothing retained beyond the stored order) the
// order-P norm is scaled by bmax as a proxy for the order-(P+1) moments.
// It returns +Inf when d <= bmax or when FinalizeNorms has not been called.
//
// The power d^(q+1) is a running product, which keeps the estimate
// non-increasing in d under rounding (every factor is monotone in d): the
// traversal's interval classification relies on that.
func (e *Expansion) AccelErrorEstimate(q int, d float64) float64 {
	if e.Norms == nil || d <= e.Bmax {
		return math.Inf(1)
	}
	if q > e.P {
		q = e.P
	}
	dPow := d
	for k := 0; k < q; k++ {
		dPow *= d
	}
	return e.truncationError(q, dPow, (d-e.Bmax)*(d-e.Bmax))
}

// truncationError is the estimate for order q <= P given dPow = d^(q+1) and
// denom = (d - bmax)^2.
func (e *Expansion) truncationError(q int, dPow, denom float64) float64 {
	var lead float64
	if q < e.P {
		lead = e.Norms[q+1] / dPow
	} else {
		lead = e.Norms[e.P] * e.Bmax / dPow
	}
	return float64(q+2) * lead / denom
}

// LowestOrder returns the lowest truncation order q in [0, P) whose
// AccelErrorEstimate(q, d) meets tol, or P when none does.  It is the loop
// over AccelErrorEstimate with the power of d carried from one candidate
// order to the next.
func (e *Expansion) LowestOrder(d, tol float64) int {
	if e.Norms == nil || d <= e.Bmax {
		return e.P
	}
	denom := (d - e.Bmax) * (d - e.Bmax)
	dPow := d
	for q := 0; q < e.P; q++ {
		if e.truncationError(q, dPow, denom) <= tol {
			return q
		}
		dPow *= d
	}
	return e.P
}

// EvaluateTruncatedBlock evaluates the expansion at a block of sink
// positions, each truncated at its own order qs[i], writing the results into
// out (len(out) >= len(xs)).  This is the batch-friendly entry point used by
// the list-inheriting traversal: the moment slice is resolved once per source
// cell and stays hot across the whole sink block.  Each element is
// bit-identical to the corresponding EvaluateTruncated call.
func (e *Expansion) EvaluateTruncatedBlock(xs []vec.V3, qs []uint8, scratch []float64, out []Result) {
	for s := range xs {
		q := int(qs[s])
		if q > e.P {
			q = e.P
		}
		r := xs[s].Sub(e.Center)
		if q <= MaxGeneratedOrder {
			out[s] = m2pGenerated(q, e.M, r)
		} else {
			out[s] = e.evaluateTable(r, q, scratch)
		}
	}
}

// EvaluateTruncated is Evaluate restricted to moments of order <= q.  Orders
// up to MaxGeneratedOrder run the generated straight-line kernels; higher
// orders interpret the index tables, writing the derivative tensor into the
// provided scratch slice (length at least ScratchSize(q)).  This is how the
// traversal spends monopole or quadrupole work on interactions whose error
// estimate already meets the tolerance at low order, reproducing the mixed
// interaction counts of Table 2.
func (e *Expansion) EvaluateTruncated(x vec.V3, q int, scratch []float64) Result {
	if q > e.P {
		q = e.P
	}
	r := x.Sub(e.Center)
	if q <= MaxGeneratedOrder {
		return m2pGenerated(q, e.M, r)
	}
	return e.evaluateTable(r, q, scratch)
}

// m2pGenerated evaluates moments m, truncated at order q <=
// MaxGeneratedOrder, at separation r = x - center.
func m2pGenerated(q int, m []float64, r vec.V3) Result {
	phi, ax, ay, az := m2pKernels[q](m, r[0], r[1], r[2])
	return Result{Phi: phi, Acc: vec.V3{ax, ay, az}}
}

// evaluateTable is the table-interpreted M2P at separation r, truncated at
// order q: the implementation for q > MaxGeneratedOrder and the reference the
// generated kernels are tested against.  It reads the largest table, whose
// leading entries are every smaller table's (the enumeration is
// order-independent), so no per-order table is looked up.
func (e *Expansion) evaluateTable(r vec.V3, q int, scratch []float64) Result {
	t := tables[MaxTableOrder]
	derivativesInto(t, r, q+1, scratch[:NumTerms(q+1)])
	var res Result
	for i := 0; i < t.Offset[q+1]; i++ {
		c := t.Coef[i] * e.M[i]
		if c == 0 {
			continue
		}
		res.Phi += c * scratch[i]
		raise := t.Raise[i]
		res.Acc[0] += c * scratch[raise[0]]
		res.Acc[1] += c * scratch[raise[1]]
		res.Acc[2] += c * scratch[raise[2]]
	}
	return res
}
