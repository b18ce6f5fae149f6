package grid

import (
	"math"
	"math/rand"
	"testing"

	"twohot/internal/vec"
)

func TestCICConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMesh(16, 100)
	n := 500
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	total := 0.0
	for i := range pos {
		pos[i] = vec.V3{100 * rng.Float64(), 100 * rng.Float64(), 100 * rng.Float64()}
		mass[i] = rng.Float64() + 0.5
		total += mass[i]
	}
	m.DepositCIC(pos, mass)
	if math.Abs(m.Total()-total)/total > 1e-12 {
		t.Errorf("CIC deposit lost mass: %g vs %g", m.Total(), total)
	}
}

func TestCICInterpolationOfLinearField(t *testing.T) {
	// CIC interpolation reproduces a linear field exactly (away from the
	// periodic wrap).
	n := 16
	l := 1.0
	m := NewMesh(n, l)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x := (float64(i) + 0.5) / float64(n)
				m.Data[m.Index(i, j, k)] = 2*x + 1
			}
		}
	}
	// The same field along y and z: component d of the result is the field
	// rotated onto axis d.
	my, mz := NewMesh(n, l), NewMesh(n, l)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				v := m.Data[m.Index(i, j, k)]
				my.Data[m.Index(k, i, j)] = v
				mz.Data[m.Index(j, k, i)] = v
			}
		}
	}
	pos := []vec.V3{{0.4, 0.5, 0.5}, {0.52, 0.22, 0.7}, {0.3, 0.61, 0.45}}
	out := make([]vec.V3, len(pos))
	InterpolateCIC([3]*Mesh{m, my, mz}, pos, out)
	for i, p := range pos {
		for d := 0; d < 3; d++ {
			want := 2*p[d] + 1
			if math.Abs(out[i][d]-want) > 1e-12 {
				t.Errorf("interpolation of component %d at %v: %g want %g", d, p, out[i][d], want)
			}
		}
	}
}

// edgePositions returns random positions in [0, l)^3 mixed with positions on
// cell edges and centers, at 0 and at the largest float below l.
func edgePositions(rng *rand.Rand, n int, l float64, count int) []vec.V3 {
	special := []float64{0, math.Nextafter(l, 0), l / 2, 0.5 * l / float64(n), l - 0.5*l/float64(n), 3 * l / float64(n)}
	pos := make([]vec.V3, count)
	for i := range pos {
		for d := range pos[i] {
			if rng.Intn(2) == 0 {
				pos[i][d] = special[rng.Intn(len(special))]
			} else {
				pos[i][d] = l * rng.Float64()
			}
		}
	}
	return pos
}

// depositPerCorner is DepositCIC as it was before the wrapped corner indices
// were computed once per axis: every corner wrapped through Index.
func depositPerCorner(m *Mesh, pos []vec.V3, mass []float64) {
	inv := float64(m.N) / m.L
	for idx, p := range pos {
		mm := 1.0
		if mass != nil {
			mm = mass[idx]
		}
		var base [3]int
		var w [3][2]float64
		for d := 0; d < 3; d++ {
			x := p[d] * inv
			x -= 0.5
			i := int(math.Floor(x))
			f := x - float64(i)
			base[d], w[d][0], w[d][1] = i, 1-f, f
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					m.Data[m.Index(base[0]+a, base[1]+b, base[2]+c)] += mm * w[0][a] * w[1][b] * w[2][c]
				}
			}
		}
	}
}

// interpolateOne is the single-field CIC interpolation the three-field
// InterpolateCIC replaced.
func interpolateOne(m *Mesh, pos []vec.V3, out []float64) {
	inv := float64(m.N) / m.L
	for idx, p := range pos {
		var base [3]int
		var w [3][2]float64
		for d := 0; d < 3; d++ {
			x := p[d] * inv
			x -= 0.5
			i := int(math.Floor(x))
			f := x - float64(i)
			base[d], w[d][0], w[d][1] = i, 1-f, f
		}
		v := 0.0
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					v += m.Data[m.Index(base[0]+a, base[1]+b, base[2]+c)] * w[0][a] * w[1][b] * w[2][c]
				}
			}
		}
		out[idx] = v
	}
}

// TestCICMatchesPerCornerReference pins DepositCIC and InterpolateCIC bit
// for bit to the per-corner bodies they replaced, on meshes of side 1, 2, 7
// and 16 with positions on cell edges and just below L.
func TestCICMatchesPerCornerReference(t *testing.T) {
	const l = 10.0
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 16} {
		pos := edgePositions(rng, n, l, 400)
		mass := make([]float64, len(pos))
		for i := range mass {
			mass[i] = rng.Float64() + 0.5
		}
		for _, w := range [][]float64{mass, nil} {
			got, want := NewMesh(n, l), NewMesh(n, l)
			got.DepositCIC(pos, w)
			depositPerCorner(want, pos, w)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("n=%d: deposit cell %d is %v, per-corner %v", n, i, v, want.Data[i])
				}
			}
		}
		var f [3]*Mesh
		for d := range f {
			f[d] = NewMesh(n, l)
			for i := range f[d].Data {
				f[d].Data[i] = rng.NormFloat64()
			}
		}
		out := make([]vec.V3, len(pos))
		InterpolateCIC(f, pos, out)
		one := make([]float64, len(pos))
		for d := range f {
			interpolateOne(f[d], pos, one)
			for i, v := range one {
				if math.Float64bits(out[i][d]) != math.Float64bits(v) {
					t.Fatalf("n=%d: particle %d component %d is %v, single-field %v", n, i, d, out[i][d], v)
				}
			}
		}
	}
}

func TestPowerSpectrumOfPlaneWave(t *testing.T) {
	// delta(x) = A cos(k1 x) has P concentrated in the k1 bin with amplitude
	// A^2 V / 2 (for the discrete convention used here).
	n := 32
	l := 200.0
	amp := 0.25
	mode := 4
	m := NewMesh(n, l)
	for i := 0; i < n; i++ {
		v := amp * math.Cos(2*math.Pi*float64(mode)*float64(i)/float64(n))
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				m.Data[m.Index(i, j, k)] = v
			}
		}
	}
	res := m.MeasurePower(PowerSpectrumOptions{NBins: n / 2})
	kTarget := 2 * math.Pi / l * float64(mode)
	vol := l * l * l
	// The wave contributes V A^2/4 at +k and at -k; both land in the same
	// |k| bin, so the bin's total power must be V A^2/2.
	wantTotal := amp * amp * vol / 2
	// The peak lands in the single bin containing kTarget; all the power
	// must be there and nowhere else.
	best := -1
	for i, r := range res {
		if best < 0 || math.Abs(r.K-kTarget) < math.Abs(res[best].K-kTarget) {
			best = i
		}
	}
	if best < 0 {
		t.Fatal("no spectrum bins measured")
	}
	binTotal := res[best].P * float64(res[best].Modes)
	if math.Abs(binTotal-wantTotal)/wantTotal > 0.05 {
		t.Errorf("plane-wave power: bin total %g, want %g", binTotal, wantTotal)
	}
	for i, r := range res {
		if i != best && r.P*float64(r.Modes) > 1e-6*wantTotal {
			t.Errorf("unexpected power %g in bin k=%g", r.P*float64(r.Modes), r.K)
		}
	}
}

func TestOverdensityMeanZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMesh(8, 1)
	pos := make([]vec.V3, 2000)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	m.DepositCIC(pos, nil)
	m.Overdensity()
	mean := m.Total() / float64(len(m.Data))
	if math.Abs(mean) > 1e-12 {
		t.Errorf("overdensity mean = %g", mean)
	}
}

func TestCICWindowLimits(t *testing.T) {
	if math.Abs(CICWindow(0, 0, 0, 100, 32)-1) > 1e-12 {
		t.Error("window at k=0 must be 1")
	}
	ny := math.Pi * 32 / 100
	if CICWindow(ny, 0, 0, 100, 32) >= 1 {
		t.Error("window at the Nyquist frequency must be < 1")
	}
}
