package multipole

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"twohot/internal/vec"
)

// sameFloat holds got to want: the same bits (signed zeros included) on
// amd64, where the compiler does not fuse multiply-adds, and within 1e-13 of
// scale (the sum of the magnitudes that were added up) elsewhere.
func sameFloat(got, want, scale float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-13*scale
}

// tableReference is the table-interpreted evaluation the kernels replace,
// plus the per-component sums of |term| that scale the non-amd64 tolerance.
func tableReference(e *Expansion, x vec.V3, q int) (ref Result, scale Result) {
	t := Table(q + 1)
	scratch := make([]float64, ScratchSize(q))
	r := x.Sub(e.Center)
	ref = e.evaluateTable(r, q, scratch)
	for i := 0; i < NumTerms(q); i++ {
		c := math.Abs(t.Coef[i] * e.M[i])
		scale.Phi += c * math.Abs(scratch[i])
		for ax := 0; ax < 3; ax++ {
			scale.Acc[ax] += c * math.Abs(scratch[t.Raise[i][ax]])
		}
	}
	return ref, scale
}

func checkKernel(t *testing.T, label string, e *Expansion, x vec.V3, q int) {
	t.Helper()
	got := e.EvaluateTruncated(x, q, nil) // q <= MaxGeneratedOrder needs no scratch
	want, scale := tableReference(e, x, q)
	ok := sameFloat(got.Phi, want.Phi, scale.Phi)
	for ax := 0; ax < 3; ax++ {
		ok = ok && sameFloat(got.Acc[ax], want.Acc[ax], scale.Acc[ax])
	}
	if !ok {
		t.Errorf("%s q=%d x=%v: kernel %+v, table %+v", label, q, x, got, want)
	}
}

func TestGeneratedKernelsMatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	center := vec.V3{0.5, 0.5, 0.5}
	separation := func() vec.V3 {
		d := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		return center.Add(d.Scale((1 + 4*rng.Float64()) / d.Norm()))
	}
	// Stored order 4 is production; 6 checks that the kernels are chosen
	// from q alone when the expansion stores more than they read.
	for _, p := range []int{4, 6} {
		particles := NewExpansion(p, center)
		particles.addParticles(randomSources(30, rng))
		zero := NewExpansion(p, center)
		for q := 0; q <= MaxGeneratedOrder; q++ {
			for trial := 0; trial < 200; trial++ {
				checkKernel(t, "particles", particles, separation(), q)

				// Background-subtracted cells: moments of either sign,
				// some exactly zero (of either sign).
				mixed := NewExpansion(p, center)
				for i := range mixed.M {
					switch rng.Intn(6) {
					case 0:
						mixed.M[i] = 0
					case 1:
						mixed.M[i] = math.Copysign(0, -1)
					default:
						mixed.M[i] = rng.NormFloat64()
					}
				}
				checkKernel(t, "sign-mixed", mixed, separation(), q)
			}
			checkKernel(t, "all-zero", zero, separation(), q)
			// Separations along axes and in coordinate planes put exact
			// zeros into the derivative tensor.
			for _, d := range []vec.V3{{2, 0, 0}, {0, -3, 0}, {0, 0, 1.5}, {1, 1, 0}, {0, -2, 1}} {
				checkKernel(t, "axis", particles, center.Add(d), q)
				checkKernel(t, "axis all-zero", zero, center.Add(d), q)
			}
		}
	}
}

// The block contract across generated kernels and the table path in one call.
func TestEvaluateTruncatedBlockMixedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	center := vec.V3{0.5, 0.5, 0.5}
	e := NewExpansion(6, center)
	e.addParticles(randomSources(40, rng))
	xs := make([]vec.V3, 64)
	qs := make([]uint8, len(xs))
	for i := range xs {
		d := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xs[i] = center.Add(d.Scale((2 + 3*rng.Float64()) / d.Norm()))
		qs[i] = uint8(rng.Intn(8)) // 0..4 generated, 5..6 table, 7 clamped to P
	}
	scratch := make([]float64, ScratchSize(e.P))
	out := make([]Result, len(xs))
	e.EvaluateTruncatedBlock(xs, qs, scratch, out)
	for i := range xs {
		if want := e.EvaluateTruncated(xs[i], int(qs[i]), scratch); out[i] != want {
			t.Errorf("block eval %d (q=%d): %+v want %+v", i, qs[i], out[i], want)
		}
	}
}

func randomNormsExpansion(rng *rand.Rand) *Expansion {
	e := NewExpansion(1+rng.Intn(MaxOrder), vec.V3{})
	e.Bmax = 0.1 + rng.Float64()
	e.Norms = make([]float64, e.P+1)
	for n := range e.Norms {
		e.Norms[n] = math.Exp(8 * rng.NormFloat64())
	}
	return e
}

// classify's interval argument needs the estimate non-increasing in d, down
// to neighbouring floats.
func TestAccelErrorEstimateNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		e := randomNormsExpansion(rng)
		for q := 0; q <= e.P; q++ {
			d := e.Bmax * (1 + 1e-3*rng.Float64())
			prev := e.AccelErrorEstimate(q, d)
			for step := 0; step < 400; step++ {
				if step%2 == 0 {
					d = math.Nextafter(d, math.Inf(1))
				} else {
					d *= 1 + 0.05*rng.Float64()
				}
				est := e.AccelErrorEstimate(q, d)
				if est > prev {
					t.Fatalf("P=%d q=%d: estimate rose from %g to %g at d=%g", e.P, q, prev, est, d)
				}
				prev = est
			}
		}
	}
}

func TestLowestOrderMatchesEstimateLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		e := randomNormsExpansion(rng)
		if trial%50 == 0 {
			e.Norms = nil // FinalizeNorms never ran: every estimate is +Inf
		}
		tol := math.Exp(10 * rng.NormFloat64())
		for _, d := range []float64{0.5 * e.Bmax, e.Bmax, e.Bmax * (1 + rng.Float64()), e.Bmax * (2 + 20*rng.Float64())} {
			want := e.P
			for q := 0; q < e.P; q++ {
				if e.AccelErrorEstimate(q, d) <= tol {
					want = q
					break
				}
			}
			if got := e.LowestOrder(d, tol); got != want {
				t.Fatalf("P=%d d=%g tol=%g: LowestOrder %d, estimate loop %d", e.P, d, tol, got, want)
			}
		}
	}
}

var benchSink float64

// BenchmarkM2P times one cell-sink interaction per truncation order through
// the block entry point the traversal uses (64 sinks per source cell).
func BenchmarkM2P(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const block = 64
	e := NewExpansion(4, vec.V3{0.5, 0.5, 0.5})
	e.addParticles(randomSources(64, rng))
	xs := make([]vec.V3, block)
	for i := range xs {
		xs[i] = vec.V3{3 + rng.Float64(), 3 + rng.Float64(), 3 + rng.Float64()}
	}
	scratch := make([]float64, ScratchSize(e.P))
	out := make([]Result, block)
	for q := 0; q <= e.P; q++ {
		qs := make([]uint8, block)
		for i := range qs {
			qs[i] = uint8(q)
		}
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i += block {
				e.EvaluateTruncatedBlock(xs, qs, scratch, out)
				benchSink += out[0].Phi
			}
		})
	}
}

// The per-particle operators (P2M in the tree build, L2P in the solve's
// post-processing) and the per-cell M2M must stay off the heap.
func TestSmallOperatorsDoNotAllocate(t *testing.T) {
	if maxScratch != NumTerms(MaxTableOrder) {
		t.Fatalf("maxScratch = %d, want NumTerms(%d) = %d", maxScratch, MaxTableOrder, NumTerms(MaxTableOrder))
	}
	rng := rand.New(rand.NewSource(16))
	center := vec.V3{0.5, 0.5, 0.5}
	child := NewExpansion(4, center)
	child.addParticles(randomSources(8, rng))
	parent := NewExpansion(4, vec.V3{1, 1, 1})
	high := NewExpansion(MaxOrder, center) // table path, stack scratch
	loc := NewLocal(6, center)
	for i := range loc.L {
		loc.L[i] = rng.NormFloat64()
	}
	x := vec.V3{3, 2, 4}
	for name, op := range map[string]func(){
		"AddParticle":        func() { child.AddParticle(vec.V3{0.4, 0.6, 0.5}, 1) },
		"AddShifted":         func() { parent.AddShifted(child) },
		"Expansion.Evaluate": func() { benchSink += child.Evaluate(x).Phi + high.Evaluate(x).Phi },
		"Local.Evaluate":     func() { benchSink += loc.Evaluate(x).Phi },
	} {
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}
