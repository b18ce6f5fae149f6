// Command 2hot-analyze post-processes an SDF snapshot through the in-situ
// analysis pipeline (internal/analysis): it measures the matter power
// spectrum, finds FOF halos with spherical-overdensity masses, and prints the
// mass function together with the Tinker08 prediction — the analysis half of
// the paper's pipeline (Section 3.4.5).  The numbers are those of an in-situ
// catalog of the same state measured with the same mesh and membership cut.
package main

import (
	"flag"
	"fmt"
	"os"

	"twohot/internal/analysis"
	"twohot/internal/cosmo"
	"twohot/internal/halo"
	"twohot/internal/massfunc"
	"twohot/internal/sdf"
	"twohot/internal/transfer"
)

func main() {
	mesh := flag.Int("mesh", 64, "power-spectrum mesh size")
	minMembers := flag.Int("min-members", 20, "minimum FOF halo membership")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: 2hot-analyze [flags] snapshot.sdf")
		os.Exit(2)
	}
	snap, err := sdf.Read(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("snapshot: %d particles, a=%.4f, L=%g Mpc/h, cosmology %s\n",
		snap.Particles.Len(), snap.ScaleFac, snap.BoxSize, snap.Cosmology)

	// Theory curves need the header's cosmology; without one the catalog
	// carries the raw measurements.
	var th analysis.Theory
	if par, err := cosmo.ByName(snap.Cosmology); err == nil {
		spec := transfer.NewSpectrum(par, transfer.EisensteinHu)
		z := 1/snap.ScaleFac - 1
		th = analysis.Theory{
			Pred:     massfunc.NewPredictor(par, spec, z),
			LinearPk: func(k float64) float64 { return spec.PAt(k, z) },
		}
	}
	cat, err := analysis.Run(snap.Particles, analysis.Meta{A: snap.ScaleFac}, analysis.Options{
		BoxSize: snap.BoxSize,
		Halos:   true, MassFunction: true, PowerSpectrum: true,
		Halo:     halo.Options{MinMembers: *minMembers},
		Mesh:     *mesh,
		MaxHalos: 10, // the listing below; the mass function bins them all
	}, th)
	if err != nil {
		fatal(err)
	}

	fmt.Println("\npower spectrum:")
	for i, p := range cat.Power {
		if i%4 == 0 {
			fmt.Printf("  k=%.4f h/Mpc  P=%.5g (Mpc/h)^3  (%d modes)\n", p.K, p.P, p.Modes)
		}
	}

	fmt.Printf("\n%d FOF halos (>= %d members)\n", cat.NumHalos, *minMembers)
	for i, h := range cat.Halos {
		fmt.Printf("  %3d  N=%6d  M_FOF=%.3e  M200b=%.3e Msun/h  R200b=%.3f Mpc/h\n",
			i, h.N, h.Mass*1e10, h.M200b*1e10, h.R200b)
	}

	if so := cat.MassFunction.SO; th.Pred != nil && len(so) > 0 {
		fmt.Println("\nmass function / Tinker08:")
		for _, b := range so {
			if b.Count > 0 && b.Pred > 0 {
				fmt.Printf("  M200b=%.3e Msun/h  ratio=%.2f +- %.2f\n", b.MCenter*1e10, b.NDensity/b.Pred, b.Poisson/b.Pred)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "2hot-analyze:", err)
	os.Exit(1)
}
