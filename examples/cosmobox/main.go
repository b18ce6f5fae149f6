// Command cosmobox runs a small periodic cosmological simulation end to end:
// 2LPT initial conditions from the Planck 2013 power spectrum, evolution to
// z=0 with the 2HOT tree solver (background subtraction, absolute-error MAC,
// compensating softening), and the standard measurements — matter power
// spectrum, FOF/SO halo catalog and the mass function compared against the
// Tinker08 fit.
package main

import (
	"flag"
	"fmt"

	twohot "twohot"
)

func main() {
	nGrid := flag.Int("n", 24, "particles per dimension")
	box := flag.Float64("box", 100, "box size in Mpc/h")
	steps := flag.Int("steps", 16, "number of timesteps")
	zInit := flag.Float64("zi", 24, "starting redshift")
	flag.Parse()

	cfg := twohot.DefaultConfig()
	cfg.Name = "cosmobox"
	cfg.NGrid = *nGrid
	cfg.BoxSize = *box
	cfg.ZInit = *zInit
	cfg.ZFinal = 0
	cfg.NSteps = *steps
	cfg.ErrTol = 1e-5
	cfg.WS = 1
	// Measurement settings of the final catalog (sim.Analyze): five mass
	// bins and the five largest halos listed; the FOF cut keeps its default
	// of 20 members.
	cfg.Analysis.MassBins = 5
	cfg.Analysis.MaxHalos = 5

	sim, err := twohot.New(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cosmobox: %d^3 particles, L=%g Mpc/h, %s cosmology\n",
		cfg.NGrid, cfg.BoxSize, cfg.Cosmology)
	fmt.Printf("particle mass: %.3e Msun/h\n", sim.Par.ParticleMass(cfg.BoxSize, cfg.NGrid*cfg.NGrid*cfg.NGrid)*1e10)

	if err := sim.GenerateICs(); err != nil {
		panic(err)
	}
	fmt.Printf("initial conditions at z=%.1f (2LPT)\n", sim.Redshift())

	// Per-step diagnostics through the Observer API: the StepInfo payload
	// carries the force result, so the hook needs no reach into the
	// Simulation.
	sim.AddObserver(twohot.ObserverFuncs{
		Step: func(info twohot.StepInfo) {
			if info.Step%4 == 0 {
				fmt.Printf("  step %3d  z=%6.2f  interactions/particle=%d\n",
					info.Step, info.Z,
					(info.Force.Counters.P2P+info.Force.Counters.CellInteractions())/int64(sim.NumParticles()))
			}
		},
	})
	if err := sim.Run(); err != nil {
		panic(err)
	}

	// The standard measurements come from one analysis catalog of the final
	// state — the same pipeline scheduled in-situ outputs and cmd/2hot-analyze
	// use.
	cat, err := sim.Analyze()
	if err != nil {
		panic(err)
	}
	fmt.Println("\nmatter power spectrum at z=0:")
	for i, p := range cat.Power {
		if i%4 == 0 {
			fmt.Printf("  k=%.3f h/Mpc  P=%.4g (Mpc/h)^3\n", p.K, p.P)
		}
	}

	fmt.Printf("\n%d FOF halos with at least 20 particles\n", cat.NumHalos)
	for i, h := range cat.Halos {
		fmt.Printf("  halo %d: N=%d  M_FOF=%.3e  M200b=%.3e Msun/h\n",
			i, h.N, h.Mass*1e10, h.M200b*1e10)
	}

	if so := cat.MassFunction.SO; len(so) > 0 {
		fmt.Println("\nmass function / Tinker08:")
		for _, b := range so {
			if b.Count > 0 && b.Pred > 0 {
				fmt.Printf("  M200b=%.3e Msun/h  ratio=%.2f\n", b.MCenter*1e10, b.NDensity/b.Pred)
			}
		}
	}

	out := sim.OutputPath("cosmobox_z0.sdf")
	if err := sim.WriteCheckpoint(out); err != nil {
		panic(err)
	}
	fmt.Printf("\nfinal snapshot written to %s\n", out)
}
