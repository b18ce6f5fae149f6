// Command 2hot runs a cosmological N-body simulation described by a JSON
// configuration file (see twohot.DefaultConfig and README.md), writing
// progress to stdout and a final SDF snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	twohot "twohot"
)

func main() {
	// A config with transport "tcp" runs as separate supervised worker
	// processes: the supervisor re-executes this binary, and this call
	// diverts those re-executions into the worker loop (it never returns
	// in a worker).
	twohot.ClusterWorkerMain()

	cfgPath := flag.String("config", "", "JSON configuration file (empty: built-in default)")
	dumpDefault := flag.Bool("print-default-config", false, "print the default configuration and exit")
	restart := flag.String("restart", "", "checkpoint file to restart from")
	out := flag.String("o", "snapshot_final.sdf", "output snapshot path")
	analyzeZ := flag.String("analyze-z", "", "comma-separated redshifts for scheduled in-situ analysis outputs")
	analyzeEvery := flag.Int("analyze-every", 0, "emit an in-situ analysis output every N steps")
	analyzeEnd := flag.Bool("analyze-end", false, "emit an in-situ analysis output after the final step")
	flag.Parse()

	cfg := twohot.DefaultConfig()
	if *dumpDefault {
		if err := cfg.Save("/dev/stdout"); err != nil {
			fatal(err)
		}
		return
	}
	if *cfgPath != "" {
		// The file layers over the defaults: it states only what differs.
		var err error
		if cfg, err = twohot.LoadConfig(*cfgPath); err != nil {
			fatal(err)
		}
	}
	// Schedule flags layer on top of whatever the config file requests.
	if *analyzeZ != "" {
		for _, field := range strings.Split(*analyzeZ, ",") {
			z, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -analyze-z value %q: %w", field, err))
			}
			cfg.Analysis.Redshifts = append(cfg.Analysis.Redshifts, z)
		}
	}
	if *analyzeEvery > 0 {
		cfg.Analysis.EverySteps = *analyzeEvery
	}
	if *analyzeEnd {
		cfg.Analysis.AtEnd = true
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	// The multi-process deployment: workers over the fault-tolerant TCP
	// transport, restarted from the last checkpoint when a rank dies.
	if cfg.Transport == "tcp" {
		result, err := twohot.RunClusterSupervised(cfg, twohot.ClusterRunOptions{
			SnapshotIn: *restart,
			OnRestart: func(attempt int, cause error) {
				fmt.Printf("world attempt %d failed (%v); restarting from last checkpoint\n", attempt, cause)
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", result)
		return
	}

	sim, err := twohot.New(cfg)
	if err != nil {
		fatal(err)
	}
	if *restart != "" {
		if err := sim.RestoreCheckpoint(*restart); err != nil {
			fatal(err)
		}
		fmt.Printf("restarted from %s at z=%.2f (leapfrog offset preserved)\n", *restart, sim.Redshift())
	} else {
		if err := sim.GenerateICs(); err != nil {
			fatal(err)
		}
		fmt.Printf("generated %d particles at z=%.2f\n", sim.NumParticles(), sim.Redshift())
	}

	// Progress through the observer API: one line per step, with the rung
	// population when block stepping is active.
	sim.AddObserver(twohot.ObserverFuncs{
		Step: func(info twohot.StepInfo) {
			if info.Rungs != nil {
				fmt.Printf("step %4d  z=%7.3f  rungs %v\n", info.Step, info.Z, info.Rungs)
				return
			}
			fmt.Printf("step %4d  z=%7.3f\n", info.Step, info.Z)
		},
	})
	sim.AddAnalysisObserver(twohot.AnalysisFunc(func(info twohot.AnalysisInfo) {
		fmt.Printf("analysis %-9s z=%7.3f halos=%d -> %s\n",
			info.Trigger.Label(), info.Catalog.Z, info.Catalog.NumHalos, info.Path)
	}))
	if err := sim.Run(); err != nil {
		fatal(err)
	}
	if err := sim.WriteCheckpoint(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "2hot:", err)
	os.Exit(1)
}
