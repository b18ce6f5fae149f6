// Package multipole implements the Cartesian multipole machinery of 2HOT:
// moment tensors of arbitrary order up to p=8 stored as symmetric tensors in
// multi-index form, the derivative-tensor recurrence for the 1/r Green's
// function, the P2M / M2M / M2P / M2L / L2P operators, the Salmon–Warren
// style truncation error bounds used by the multipole acceptance criterion,
// and the specialized monopole interaction kernels (scalar and m-by-n
// blocked) used by the micro-kernel benchmark of Table 3.
//
// In the paper the interaction routines are emitted by a computer algebra
// system as straight-line code.  Here the symmetric-tensor algebra is defined
// once, by the multi-index tables of this file (IndexTable: enumeration,
// combinatorial factors, the derivative recurrence DRec and the Raise map),
// and executed two ways:
//
//   - Generated kernels (m2p_gen.go, emitted from those same tables by
//     ./m2pgen under go generate): one straight-line M2P routine per
//     truncation order q = 0..MaxGeneratedOrder, holding the derivative
//     tensor of 1/r to order q+1 in local variables and then contracting it
//     with the moments.  EvaluateTruncated, EvaluateTruncatedBlock and
//     Evaluate dispatch to them on q alone — the order the
//     caller asks for, clamped to the stored order — so every tree walk,
//     whatever its configuration, runs them for q <= MaxGeneratedOrder.
//   - The table-interpreted path (DerivativesInto + evaluateTable): the only
//     implementation for q > MaxGeneratedOrder, and the reference the tests
//     hold the generated kernels to.  The kernels perform the same
//     floating-point operations in the same order, so the two agree bit for
//     bit wherever the compiler does not fuse multiply-adds (amd64).
package multipole

//go:generate go run ./m2pgen

import "fmt"

// MaxOrder is the highest supported expansion order (hexadecapole is p=4; the
// paper uses up to p=8).
const MaxOrder = 8

// MultiIndex is a Cartesian multi-index (alpha_x, alpha_y, alpha_z).
type MultiIndex [3]int

// Order returns |alpha|.
func (a MultiIndex) Order() int { return a[0] + a[1] + a[2] }

// IndexTable enumerates all multi-indices with |alpha| <= P and caches the
// combinatorial factors used by the expansion operators.
type IndexTable struct {
	P      int
	Idx    []MultiIndex       // all multi-indices, ordered by order then lexicographically
	Pos    map[MultiIndex]int // inverse of Idx
	Offset []int              // Offset[n] is the first slot of order n; Offset[P+1] == len(Idx)
	Fact   []float64          // Fact[n] = n!
	AFact  []float64          // AFact[i] = alpha! for Idx[i]
	Coef   []float64          // Coef[i] = (-1)^{|alpha|} / alpha!
	InvAF  []float64          // InvAF[i] = 1 / alpha!

	// Raise[i][ax] is the canonical position of Idx[i]+e_ax.  The enumeration
	// order of multi-indices is independent of the table order, so the value
	// is valid in any table of sufficient order; it lets the force
	// contraction avoid map lookups in the inner loop.
	Raise [][3]int32
	// DRec[i] lists the recurrence terms for the derivative tensor of 1/r at
	// Idx[i] (see DerivativesInto): d[i] = (1/(|alpha| r^2)) * sum of terms,
	// each term being Coef * d[Src] (Axis < 0) or Coef * r[Axis] * d[Src].
	DRec [][]DerivTerm
}

// DerivTerm is one precomputed term of the derivative-tensor recurrence.
type DerivTerm struct {
	Src  int32
	Axis int8 // -1: no position factor
	Coef float64
}

// CanonicalPos returns the position of a multi-index in the order-independent
// enumeration used by all tables.
func CanonicalPos(a MultiIndex) int {
	n := a.Order()
	pos := NumTerms(n - 1)
	// Within an order, indices are enumerated with ax descending, then ay
	// descending.
	for ax := n; ax > a[0]; ax-- {
		pos += n - ax + 1
	}
	pos += a[1] // ay runs from n-ax down to 0; offset = (n-ax) - ay
	pos = pos + (n - a[0]) - a[1] - a[1]
	return pos
}

// MaxTableOrder is the highest order Table serves: evaluating an order-p
// expansion needs the derivative tensor of order p+1, and the lattice M2L
// tensors go one further.  A far-lattice expansion of order l over a tree of
// order p asks for Table(p+l), so configurations must keep p+l within it.
const MaxTableOrder = MaxOrder + 2

// tables holds the index table of every order, built once at package
// initialization and read-only afterwards, so the evaluation hot paths share
// them without synchronization.
var tables = func() (ts [MaxTableOrder + 1]*IndexTable) {
	for p := range ts {
		ts[p] = newTable(p)
	}
	return ts
}()

// Table returns the index table for order p.
func Table(p int) *IndexTable {
	if p < 0 || p > MaxTableOrder {
		panic(fmt.Sprintf("multipole: unsupported order %d", p))
	}
	return tables[p]
}

func newTable(p int) *IndexTable {
	t := &IndexTable{
		P:      p,
		Pos:    make(map[MultiIndex]int),
		Offset: make([]int, p+2),
		Fact:   make([]float64, p+2),
	}
	t.Fact[0] = 1
	for n := 1; n <= p+1; n++ {
		t.Fact[n] = t.Fact[n-1] * float64(n)
	}
	for n := 0; n <= p; n++ {
		t.Offset[n] = len(t.Idx)
		for ax := n; ax >= 0; ax-- {
			for ay := n - ax; ay >= 0; ay-- {
				az := n - ax - ay
				mi := MultiIndex{ax, ay, az}
				t.Pos[mi] = len(t.Idx)
				t.Idx = append(t.Idx, mi)
			}
		}
	}
	t.Offset[p+1] = len(t.Idx)
	t.AFact = make([]float64, len(t.Idx))
	t.Coef = make([]float64, len(t.Idx))
	t.InvAF = make([]float64, len(t.Idx))
	for i, mi := range t.Idx {
		af := factorial(mi[0]) * factorial(mi[1]) * factorial(mi[2])
		t.AFact[i] = af
		t.InvAF[i] = 1 / af
		sign := 1.0
		if mi.Order()%2 == 1 {
			sign = -1
		}
		t.Coef[i] = sign / af
	}
	t.Raise = make([][3]int32, len(t.Idx))
	t.DRec = make([][]DerivTerm, len(t.Idx))
	for i, mi := range t.Idx {
		for ax := 0; ax < 3; ax++ {
			up := mi
			up[ax]++
			t.Raise[i][ax] = int32(CanonicalPos(up))
		}
		n := mi.Order()
		if n == 0 {
			continue
		}
		var terms []DerivTerm
		for c := 0; c < 3; c++ {
			if mi[c] == 0 {
				continue
			}
			am := mi
			am[c]--
			terms = append(terms, DerivTerm{
				Src:  int32(t.Pos[am]),
				Axis: int8(c),
				Coef: -(2*float64(n) - 1) * float64(mi[c]),
			})
			if mi[c] > 1 {
				am2 := mi
				am2[c] -= 2
				terms = append(terms, DerivTerm{
					Src:  int32(t.Pos[am2]),
					Axis: -1,
					Coef: -(float64(n) - 1) * float64(mi[c]) * float64(mi[c]-1),
				})
			}
		}
		t.DRec[i] = terms
	}
	return t
}

// NumTerms returns the number of multi-indices with |alpha| <= p, i.e.
// (p+1)(p+2)(p+3)/6.
func NumTerms(p int) int { return (p + 1) * (p + 2) * (p + 3) / 6 }

// NumTermsOfOrder returns the number of multi-indices with |alpha| == n.
func NumTermsOfOrder(n int) int { return (n + 1) * (n + 2) / 2 }

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// Binomial3 returns the product of per-component binomial coefficients
// C(a_x,b_x) C(a_y,b_y) C(a_z,b_z); it is zero unless b <= a component-wise.
func Binomial3(a, b MultiIndex) float64 {
	prod := 1.0
	for i := 0; i < 3; i++ {
		if b[i] > a[i] || b[i] < 0 {
			return 0
		}
		prod *= binom(a[i], b[i])
	}
	return prod
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}
