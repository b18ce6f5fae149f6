package twohot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twohot/internal/cluster"
	"twohot/internal/comm"
	"twohot/internal/sdf"
)

// ClusterWorkerMain diverts this process into a cluster worker when it was
// re-executed by the supervisor (RunClusterSupervised), and returns
// immediately otherwise.  Any binary whose path may be handed to
// RunClusterSupervised as the worker command must call it before normal
// argument handling; cmd/2hot does.
func ClusterWorkerMain() { cluster.WorkerMain() }

// ClusterRunOptions configures RunClusterSupervised.  The zero value is
// usable: the current binary is re-executed as the workers, restarts are
// bounded by a small default, and worker stderr goes to this process's
// stderr.
type ClusterRunOptions struct {
	// Command is the argv each worker process is launched with (rank and
	// run description travel through the environment).  Empty means the
	// current binary, which must call ClusterWorkerMain early in main.
	Command []string
	// SnapshotIn, when non-empty, starts the run from this SDF snapshot —
	// typically a checkpoint written by a previous cluster run, whose
	// completed-step count resumes the original step grid — instead of
	// generating initial conditions from the configuration.
	SnapshotIn string
	// MaxRestarts bounds how many times the world is restarted after a
	// rank death before giving up (0 means a default of 3).
	MaxRestarts int
	// Stderr receives worker process stderr (nil means os.Stderr).
	Stderr io.Writer
	// OnRestart, when non-nil, observes each recovery: the attempt number
	// that just failed (0-based) and the error that killed it.
	OnRestart func(attempt int, cause error)
}

// RunClusterSupervised runs the configuration as Cfg.Ranks separate worker
// processes over the fault-tolerant TCP transport and returns the path of the
// final gathered snapshot.  It requires Transport "tcp" (Validate ties that
// to Ranks > 1 and the tree solver).
//
// The supervisor stages the initial state as an SDF snapshot, reserves a
// loopback address per rank, launches the workers, and — when any rank dies —
// kills the survivors and relaunches the world from the last good checkpoint
// (CheckpointEvery steps apart; every CheckpointEvery <= 0 defaults to 1
// here, since checkpoints are what recovery restores).  Workers advance the
// same comoving leapfrog on the same step grid regardless of transport or
// restarts, so the result is bit-identical to an uninterrupted run; see
// internal/cluster for the invariants that guarantee it.
func RunClusterSupervised(cfg Config, opt ClusterRunOptions) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	if cfg.Transport != "tcp" {
		return "", fmt.Errorf("twohot: cluster runs require transport \"tcp\", not %q", cfg.Transport)
	}
	dir := cfg.OutputDir
	if dir == "" {
		dir = "."
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	spec, err := stageClusterRun(cfg, dir, opt.SnapshotIn)
	if err != nil {
		return "", err
	}
	command := opt.Command
	if len(command) == 0 {
		command = []string{os.Args[0]}
	}
	err = cluster.Supervise(spec, cluster.SuperviseOptions{
		Command:     command,
		MaxRestarts: opt.MaxRestarts,
		Dir:         dir,
		Stderr:      opt.Stderr,
		OnRestart:   opt.OnRestart,
	})
	if err != nil {
		return "", err
	}
	// The end-of-run analysis a single-process Run performs in situ is
	// measured here by the supervisor from the gathered result snapshot —
	// same trigger, same pipeline, same canonical particle order, so the
	// catalog is byte-comparable with an in-process run's (Validate restricts
	// cluster schedules to at_end; workers never run the observer loop).
	if due := cfg.Analysis.schedule().End(cfg.NSteps); len(due) > 0 {
		sim, err := New(cfg)
		if err != nil {
			return "", err
		}
		if err := sim.RestoreCheckpoint(spec.ResultPath); err != nil {
			return "", err
		}
		if err := sim.runScheduledAnalysis(due); err != nil {
			return "", err
		}
	}
	return spec.ResultPath, nil
}

// stageClusterRun prepares a cluster run: it stages the initial state as a
// file every worker loads — either the caller's snapshot (a resume) or
// freshly generated initial conditions — and derives the run spec.  The step
// size is always the full grid's, Config.dlnA from the snapshot's step-grid
// anchor — the call Simulation.Run makes — so a resumed run continues the
// original grid bit for bit, and a snapshot without an anchor starts a fresh
// grid at its own epoch.  The same spec drives every transport (the TCP
// supervisor here, the in-process channel world in tests), which is what
// makes their results byte-comparable.
func stageClusterRun(cfg Config, dir, snapshotIn string) (cluster.Spec, error) {
	icPath := snapshotIn
	var snap *sdf.Snapshot
	if icPath == "" {
		sim, err := New(cfg)
		if err != nil {
			return cluster.Spec{}, err
		}
		if err := sim.GenerateICs(); err != nil {
			return cluster.Spec{}, err
		}
		icPath = filepath.Join(dir, cfg.Name+"-cluster-ic.sdf")
		snap = sim.Snapshot()
		if err := sdf.Write(icPath, snap); err != nil {
			return cluster.Spec{}, err
		}
	} else {
		var err error
		if snap, err = sdf.Read(icPath); err != nil {
			return cluster.Spec{}, err
		}
	}
	stepsDone, aInit := snap.StepGrid()
	if stepsDone >= cfg.NSteps {
		return cluster.Spec{}, fmt.Errorf("twohot: snapshot %s already completed step %d of %d", icPath, stepsDone, cfg.NSteps)
	}

	spec := cluster.Spec{
		TCPOptions:           comm.TCPOptions{N: cfg.Ranks},
		Cosmology:            cfg.Cosmology,
		Tree:                 cfg.treeConfig(),
		NSteps:               cfg.NSteps,
		DlnA:                 cfg.dlnA(aInit),
		BlockSteps:           cfg.BlockSteps,
		RungDisplacementFrac: cfg.RungDisplacementFrac,
		SnapshotIn:           icPath,
		ResultPath:           filepath.Join(dir, cfg.Name+"-final.sdf"),
		CheckpointPath:       filepath.Join(dir, cfg.Name+"-ckpt.sdf"),
		CheckpointEvery:      cfg.CheckpointEvery,
	}
	if spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = 1
	}
	return spec, nil
}
