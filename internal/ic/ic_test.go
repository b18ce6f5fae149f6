package ic

import (
	"math"
	"testing"

	"twohot/internal/cosmo"
	"twohot/internal/grid"
	"twohot/internal/transfer"
	"twohot/internal/vec"
)

func TestGenerateBasicProperties(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	opt := Options{NGrid: 16, BoxSize: 200, ZInit: 49, Seed: 1, Use2LPT: true}
	p, err := Generate(par, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 16*16*16 {
		t.Fatalf("N = %d", p.N())
	}
	// All particles inside the box, displacements small at z=49.
	h := 200.0 / 16
	for i, x := range p.Pos {
		for d := 0; d < 3; d++ {
			if x[d] < 0 || x[d] >= 200 {
				t.Fatalf("particle %d outside box: %v", i, x)
			}
		}
	}
	// Mean momentum ~ 0 (no bulk flow).
	var mean vec.V3
	for _, m := range p.Mom {
		mean = mean.Add(m)
	}
	mean = mean.Scale(1 / float64(p.N()))
	if mean.Norm() > 20 {
		t.Errorf("bulk flow %v km/s too large", mean)
	}
	// Displacement rms should be well below a cell at z=49.
	rms := 0.0
	idx := 0
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			for k := 0; k < 16; k++ {
				q := vec.V3{(float64(i) + 0.5) * h, (float64(j) + 0.5) * h, (float64(k) + 0.5) * h}
				d := vec.MinImageV(p.Pos[idx].Sub(q), 200)
				rms += d.Norm2()
				idx++
			}
		}
	}
	rms = math.Sqrt(rms / float64(p.N()))
	if rms > h || rms == 0 {
		t.Errorf("rms displacement %g vs cell size %g", rms, h)
	}
}

func TestRealizationMatchesInputSpectrum(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	n := 32
	l := 500.0
	opt := Options{NGrid: n, BoxSize: l, ZInit: 0, Seed: 3}
	delta := linearDelta(spec, n, l, opt)
	ps := delta.MeasurePower(grid.PowerSpectrumOptions{NBins: 8})
	// Compare the measured band powers with the input spectrum (cosmic
	// variance per bin is ~1/sqrt(modes)).
	for _, b := range ps[:4] {
		want := spec.P(b.K)
		if b.Modes < 10 {
			continue
		}
		tol := 4 / math.Sqrt(float64(b.Modes))
		if math.Abs(b.P-want)/want > tol+0.3 {
			t.Errorf("k=%.3f: measured P=%.4g, input %.4g (modes %d)", b.K, b.P, want, b.Modes)
		}
	}
}

func Test2LPTChangesDisplacements(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	base := Options{NGrid: 16, BoxSize: 100, ZInit: 9, Seed: 5}
	zel, err := Generate(par, spec, base)
	if err != nil {
		t.Fatal(err)
	}
	with := base
	with.Use2LPT = true
	lpt, err := Generate(par, spec, with)
	if err != nil {
		t.Fatal(err)
	}
	// The second-order term must change positions, but only slightly
	// compared to the first-order displacement at this redshift.
	maxShift := 0.0
	for i := range zel.Pos {
		d := vec.MinImageV(lpt.Pos[i].Sub(zel.Pos[i]), 100).Norm()
		if d > maxShift {
			maxShift = d
		}
	}
	if maxShift == 0 {
		t.Error("2LPT correction had no effect")
	}
	if maxShift > 100.0/16 {
		t.Errorf("2LPT correction %g larger than a grid cell", maxShift)
	}
}

// linearDelta returns the real-space linear density contrast at z=0 for the
// same random realization, for the Zel'dovich validation.
func linearDelta(spec *transfer.Spectrum, n int, l float64, opt Options) *grid.Mesh {
	g := gaussianFieldK(spec, n, l, opt)
	g.Inverse()
	m := grid.NewMesh(n, l)
	for i := range m.Data {
		m.Data[i] = real(g.Data[i])
	}
	return m
}
