package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(N^2) reference.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 6, 12, 17, 30} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(7))
		if rng.Intn(2) == 0 {
			n += rng.Intn(5) // exercise the Bluestein path too
		}
		if n < 1 {
			n = 1
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Forward(y)
		p.Inverse(y)
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsevalTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	x := make([]complex128, n)
	sumX := 0.0
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		sumX += real(x[i]) * real(x[i])
	}
	NewPlan(n).Forward(x)
	sumK := 0.0
	for _, v := range x {
		sumK += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(sumK/float64(n)-sumX)/sumX > 1e-10 {
		t.Errorf("Parseval violated: %g vs %g", sumK/float64(n), sumX)
	}
}

func TestGrid3PlaneWave(t *testing.T) {
	n := 16
	g := NewCube(n)
	// A single plane wave along x must transform to two delta functions.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				g.Set(i, j, k, complex(math.Cos(2*math.Pi*3*float64(i)/float64(n)), 0))
			}
		}
	}
	g.Forward()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				mag := cmplx.Abs(g.At(i, j, k))
				expectPeak := (i == 3 || i == n-3) && j == 0 && k == 0
				if expectPeak && mag < float64(n*n*n)/4 {
					t.Errorf("missing peak at (%d,%d,%d): %g", i, j, k, mag)
				}
				if !expectPeak && mag > 1e-6*float64(n*n*n) {
					t.Errorf("unexpected power at (%d,%d,%d): %g", i, j, k, mag)
				}
			}
		}
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGrid3(8, 4, 16)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = g.Data[i]
	}
	g.Forward()
	g.Inverse()
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("3-D round trip failed at %d", i)
		}
	}
}

// lineTransforms is the 3-D transform as one fresh 1-D plan call per line,
// serially, axis 2 then 1 then 0: the oracle Grid3's range-split passes with
// their reused gather and Bluestein buffers are pinned to.
func lineTransforms(n [3]int, data []complex128, inverse bool) {
	for axis := 2; axis >= 0; axis-- {
		p := NewPlan(n[axis])
		for i := 0; i < n[0]; i++ {
			for j := 0; j < n[1]; j++ {
				for k := 0; k < n[2]; k++ {
					if [3]int{i, j, k}[axis] != 0 {
						continue
					}
					stride := [3]int{n[1] * n[2], n[2], 1}[axis]
					first := (i*n[1]+j)*n[2] + k
					line := make([]complex128, n[axis])
					for x := range line {
						line[x] = data[first+x*stride]
					}
					if inverse {
						p.Inverse(line)
					} else {
						p.Forward(line)
					}
					for x, v := range line {
						data[first+x*stride] = v
					}
				}
			}
		}
	}
}

// TestGrid3MatchesLineTransforms pins both 3-D directions bit for bit to the
// per-line oracle on a grid with Bluestein (6, 12) and radix-2 (8) axes, at
// one and at three workers.
func TestGrid3MatchesLineTransforms(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(4))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, inverse := range []bool{false, true} {
			g := NewGrid3(6, 8, 12)
			for i := range g.Data {
				g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := append([]complex128(nil), g.Data...)
			lineTransforms(g.N, want, inverse)
			if inverse {
				g.Inverse()
			} else {
				g.Forward()
			}
			for i, v := range g.Data {
				if math.Float64bits(real(v)) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(want[i])) {
					t.Fatalf("procs=%d inverse=%v: element %d is %v, per-line oracle %v", procs, inverse, i, v, want[i])
				}
			}
		}
	}
}

// TestHalfMatchesGrid3 pins the half spectrum to the full complex cube:
// the forward transform of a random real field against Grid3.Forward on the
// same field, and the inverse of a -ik-style spectrum (odd in k along one
// axis, Nyquist zeroed) and of an arbitrary half (its DC and Nyquist planes
// not Hermitian) against the real part of Grid3.Inverse of the full
// spectrum the half describes, on odd, even, Bluestein and radix-2 sides.
// Both directions give the same bits at one and at three workers.
func TestHalfMatchesGrid3(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 5, 6, 12, 16} {
		nh := n/2 + 1
		x := make([]float64, n*n*n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		full := NewCube(n)
		for i, v := range x {
			full.Data[i] = complex(v, 0)
		}
		full.Forward()
		// The -ik derivative along each axis, then an arbitrary half with
		// its mirror, as full spectra and as the real parts of their
		// inverses.
		var grads [4][]complex128
		var wantGrad [4][]float64
		for c := range grads {
			g := NewCube(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < n; k++ {
						if c < 3 {
							f := [3]int{i, j, k}[c]
							kc := 0.0
							if 2*f != n {
								kc = float64(FreqIndex(f, n))
							}
							g.Set(i, j, k, complex(0, -kc)*full.At(i, j, k))
						} else if k < nh {
							v := complex(rng.NormFloat64(), rng.NormFloat64())
							g.Set(i, j, k, v)
							if k > 0 && 2*k != n {
								g.Set((n-i)%n, (n-j)%n, n-k, cmplx.Conj(v))
							}
						}
					}
				}
			}
			grads[c] = append([]complex128(nil), g.Data...)
			g.Inverse()
			wantGrad[c] = make([]float64, len(g.Data))
			for i, v := range g.Data {
				wantGrad[c][i] = real(v)
			}
		}

		var spec []complex128
		var out [4][]float64
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			h := NewHalf(n)
			in := append([]float64(nil), x...)
			h.Forward(in)
			for i, v := range in {
				if v != x[i] {
					t.Fatalf("n=%d procs=%d: Forward changed its input at %d", n, procs, i)
				}
			}
			if spec == nil {
				spec = append([]complex128(nil), h.Data...)
				tol := 1e-12 * math.Sqrt(float64(n*n*n))
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						for k := 0; k < nh; k++ {
							if d := cmplx.Abs(h.At(i, j, k) - full.At(i, j, k)); d > tol {
								t.Fatalf("n=%d: forward mode (%d,%d,%d) is %v, Grid3 %v", n, i, j, k, h.At(i, j, k), full.At(i, j, k))
							}
						}
					}
				}
			} else {
				for i, v := range h.Data {
					if math.Float64bits(real(v)) != math.Float64bits(real(spec[i])) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(spec[i])) {
						t.Fatalf("n=%d procs=%d: forward element %d is %v, procs=1 gave %v", n, procs, i, v, spec[i])
					}
				}
			}
			for c, g := range grads {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						for k := 0; k < nh; k++ {
							h.Set(i, j, k, g[(i*n+j)*n+k])
						}
					}
				}
				got := make([]float64, n*n*n)
				h.Inverse(got)
				if out[c] == nil {
					out[c] = got
					tol := 1e-12 * float64(n)
					for i, v := range got {
						if math.Abs(v-wantGrad[c][i]) > tol {
							t.Fatalf("n=%d axis %d: inverse element %d is %v, real(Grid3) %v", n, c, i, v, wantGrad[c][i])
						}
					}
					continue
				}
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(out[c][i]) {
						t.Fatalf("n=%d procs=%d axis %d: inverse element %d is %v, procs=1 gave %v", n, procs, c, i, v, out[c][i])
					}
				}
			}
		}
	}
}

// BenchmarkHalfCube times one real forward and inverse transform of a 64^3
// field through the half spectrum.
func BenchmarkHalfCube(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 64*64*64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	h := NewHalf(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Forward(x)
		h.Inverse(x)
	}
}

func TestFreqIndex(t *testing.T) {
	if FreqIndex(0, 8) != 0 || FreqIndex(1, 8) != 1 || FreqIndex(7, 8) != -1 || FreqIndex(5, 8) != -3 {
		t.Error("FreqIndex mapping")
	}
}
