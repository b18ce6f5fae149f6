package analysis

import (
	"bytes"
	"math"
	"testing"

	"twohot/internal/cosmo"
	"twohot/internal/massfunc"
	"twohot/internal/transfer"
)

// perCallTheory is how the theory curves were built before NewTheory: the
// linear P(k) closure integrates the growth factor afresh for every k bin.
func perCallTheory(par cosmo.Params, spec *transfer.Spectrum, z float64) Theory {
	return Theory{
		Pred: massfunc.NewPredictor(par, spec, z),
		LinearPk: func(k float64) float64 {
			d := par.GrowthFactor(1 / (1 + z))
			return spec.P(k) * d * d
		},
	}
}

// TestTheoryCatalogMatchesPerCallClosures measures one clustered state with
// NewTheory and with the per-call closures: the catalog bytes are equal.
func TestTheoryCatalogMatchesPerCallClosures(t *testing.T) {
	const box = 64.0
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	set := clusteredSet(11, 900, box)
	for _, a := range []float64{0.04, 0.5, 1} {
		z := 1/a - 1
		meta := Meta{Name: "theory", Step: 4, A: a, Trigger: Trigger{Kind: TriggerCadence, Step: 4}}
		var enc [2][]byte
		for i, th := range []Theory{NewTheory(par, spec, z), perCallTheory(par, spec, z)} {
			cat, err := Run(set, meta, testOptions(box), th)
			if err != nil {
				t.Fatal(err)
			}
			if len(cat.Power) == 0 || cat.MassFunction == nil || len(cat.MassFunction.SO) == 0 {
				t.Fatalf("a=%g: catalog without power or SO mass function", a)
			}
			if enc[i], err = EncodeCatalog(cat); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("a=%g: NewTheory catalog differs from the per-call closures' catalog", a)
		}
	}
}

// TestTheoryLinearPkScalesWithGrowth: the linear spectrum at z is the z=0
// spectrum times the squared growth factor.
func TestTheoryLinearPkScalesWithGrowth(t *testing.T) {
	par := cosmo.Planck2013()
	s := transfer.NewSpectrum(par, transfer.EisensteinHu)
	k := 0.1
	d := par.GrowthFactor(1 / (1 + 2.0))
	want := s.P(k) * d * d
	if got := NewTheory(par, s, 2).LinearPk(k); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("linear P(k=%g, z=2) = %g, want %g", k, got, want)
	}
}

// BenchmarkTheoryCatalog is one catalog's theory work: build the curves at
// the catalog's redshift, then 32 mass-function predictions (16 bins for
// each of the FOF and SO functions) and 32 linear P(k) bins.  The spectrum
// is built once per run, so it is outside the timed loop.
func BenchmarkTheoryCatalog(b *testing.B) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	for b.Loop() {
		th := NewTheory(par, spec, 1)
		for j := 0; j < 16; j++ {
			m := 1e3 * math.Pow(100, float64(j)/16)
			th.Pred.DnDlnM(massfunc.Warren06, m)
			th.Pred.DnDlnM(massfunc.Tinker08, m)
		}
		for j := 0; j < 32; j++ {
			th.LinearPk(0.1 * float64(j+1))
		}
	}
}
