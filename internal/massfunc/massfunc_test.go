package massfunc

import (
	"math"
	"testing"

	"twohot/internal/cosmo"
	"twohot/internal/transfer"
)

func TestMeasureCountsAndVolume(t *testing.T) {
	masses := []float64{1, 2, 4, 8, 16, 32, 64}
	bins := Measure(masses, 100, 1, 100, 7)
	totalCount := 0
	for _, b := range bins {
		totalCount += b.Count
		if b.Count > 0 && b.NDensity <= 0 {
			t.Error("non-empty bin with zero density")
		}
		if b.MCenter < b.MLo || b.MCenter > b.MHi {
			t.Error("bin center outside bin")
		}
	}
	if totalCount != len(masses) {
		t.Errorf("binned %d of %d halos", totalCount, len(masses))
	}
}

func TestTinker08ReasonableAbundance(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	p := NewPredictor(par, spec, 0)
	// dn/dlnM at 1e13 Msun/h (1e3 internal) should be around 1e-4 to 1e-3
	// halos per (Mpc/h)^3, and drop precipitously by 1e15.
	n13 := p.DnDlnM(Tinker08, 1e3)
	n15 := p.DnDlnM(Tinker08, 1e5)
	if n13 < 1e-5 || n13 > 1e-2 {
		t.Errorf("dn/dlnM(1e13) = %g", n13)
	}
	if n15 >= n13 {
		t.Error("mass function must decrease with mass")
	}
	if n15 < 1e-9 || n15 > 1e-4 {
		t.Errorf("dn/dlnM(1e15) = %g", n15)
	}
	// Warren06 (FOF) should be within a factor of a few of Tinker08.
	w := p.DnDlnM(Warren06, 1e3)
	if w/n13 < 0.3 || w/n13 > 3 {
		t.Errorf("Warren06/Tinker08 at 1e13 = %g", w/n13)
	}
}

func TestMassFunctionRedshiftEvolution(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	p0 := NewPredictor(par, spec, 0)
	p1 := NewPredictor(par, spec, 1)
	// Cluster-scale halos are far rarer at z=1 than today.
	if p1.DnDlnM(Tinker08, 3e4) >= p0.DnDlnM(Tinker08, 3e4) {
		t.Error("cluster abundance should decrease with redshift")
	}
}

func TestRatioToFit(t *testing.T) {
	par := cosmo.Planck2013()
	spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
	p := NewPredictor(par, spec, 0)
	bins := []Bin{{MLo: 900, MHi: 1100, MCenter: 1000, Count: 10, NDensity: p.DnDlnM(Tinker08, 1000), Poisson: 1e-6}}
	m, ratio, _ := ratioToFit(p, Tinker08, bins)
	if len(m) != 1 || math.Abs(ratio[0]-1) > 1e-9 {
		t.Errorf("ratio of the prediction to itself must be 1, got %v", ratio)
	}
}

// ratioToFit divides a measured mass function by the analytic prediction,
// returning (mass, ratio, poisson error) triples — the quantity plotted in
// Figure 8.
func ratioToFit(p *Predictor, fit Fit, bins []Bin) (m, ratio, errp []float64) {
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		pred := p.DnDlnM(fit, b.MCenter)
		if pred <= 0 {
			continue
		}
		m = append(m, b.MCenter)
		ratio = append(ratio, b.NDensity/pred)
		errp = append(errp, b.Poisson/pred)
	}
	return
}
