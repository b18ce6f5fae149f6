package twohot

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"twohot/internal/analysis"
	"twohot/internal/core"
	"twohot/internal/cosmo"
	"twohot/internal/halo"
	"twohot/internal/multipole"
	"twohot/internal/pm"
	"twohot/internal/softening"
	"twohot/internal/step"
	"twohot/internal/traverse"
)

// SolverKind selects the gravity solver.
type SolverKind string

const (
	// SolverTree is the 2HOT hashed oct-tree solver (the paper's method).
	SolverTree SolverKind = "tree"
	// SolverTreePM is the GADGET-2-style TreePM baseline (mesh long range +
	// direct short range with an erfc split).
	SolverTreePM SolverKind = "treepm"
	// SolverPM is a pure particle-mesh solver.
	SolverPM SolverKind = "pm"
	// SolverDirect is the O(N^2) reference (verification only).
	SolverDirect SolverKind = "direct"
)

// Config fully describes a simulation.  The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	Name string `json:"name"`

	// Cosmology.
	Cosmology string  `json:"cosmology"` // planck2013, wmap7, wmap1, eds
	Sigma8    float64 `json:"sigma8,omitempty"`

	// Initial conditions.
	BoxSize    float64 `json:"box_size"` // Mpc/h
	NGrid      int     `json:"n_grid"`   // particles per dimension
	ZInit      float64 `json:"z_init"`
	Seed       int64   `json:"seed"`
	Use2LPT    bool    `json:"use_2lpt"`
	UseDEC     bool    `json:"use_dec"`
	SphereMode bool    `json:"sphere_mode"`

	// Force solver.
	Solver                SolverKind `json:"solver"`
	Order                 int        `json:"order"`
	ErrTol                float64    `json:"err_tol"`
	MAC                   string     `json:"mac"` // "abs" or "bh"
	Theta                 float64    `json:"theta"`
	BackgroundSubtraction bool       `json:"background_subtraction"`
	WS                    int        `json:"ws"`
	LatticeOrder          int        `json:"lattice_order"`
	Kernel                string     `json:"kernel"`         // plummer, spline, dehnen-k1
	SofteningFrac         float64    `json:"softening_frac"` // fraction of the mean interparticle separation
	Softening             float64    `json:"softening"`      // absolute override (Mpc/h)
	PMGrid                int        `json:"pm_grid"`        // mesh for pm/treepm
	Asmth                 float64    `json:"asmth"`          // treepm split in mesh cells
	RCut                  float64    `json:"rcut,omitempty"` // treepm short-range cutoff in units of the split scale (0 = 4.5)
	// Workers bounds the goroutines of every parallel loop a run makes: tree
	// build, walk, mesh and its transforms, initial conditions and analysis
	// (0 = GOMAXPROCS).  Ranks > 1 in one process split it between them.
	// No result bit depends on it.
	Workers int `json:"workers"`
	// Incremental reuses each step's sorted particle order to seed the next
	// step's tree build (bit-identical to a from-scratch build; near-static
	// steps skip the full radix sort).
	Incremental bool `json:"incremental"`
	// Ranks, when > 1, runs every force solve through the message-passing
	// pipeline on that many ranks (one core.RankSolver each), with
	// work-weighted domain rebalancing fed back from step to step: every
	// decomposition balances the per-particle interaction counts of the
	// previous solve, and those weights are part of every snapshot, so a run
	// resumed from a checkpoint decomposes — and, with global stepping, ends —
	// exactly like the uninterrupted one.
	Ranks int `json:"ranks,omitempty"`
	// Transport selects the fabric a Ranks > 1 run communicates over:
	// "chan" (the default, also the empty string) runs every rank as a
	// goroutine of this process over shared-memory channels, while "tcp"
	// runs them as separate supervised worker processes over TCP loopback —
	// the fault-tolerant deployment mode, with checkpoint-based recovery
	// when a rank process dies (see RunClusterSupervised and cmd/2hot).
	// What is pinned: with global stepping (BlockSteps == 0) the same Config
	// ends in the same particle bytes on either fabric and across a resume
	// or crash recovery.  With block stepping each fabric is self-consistent
	// (deterministic, resume- and recovery-identical) but the two differ from
	// each other: they start a substep's decomposition from different
	// layouts (ROADMAP item 2(b)).
	Transport string `json:"transport,omitempty"`
	// BlockSteps, when positive, replaces every global step with a
	// hierarchical block step of that many power-of-two rung levels:
	// particles are assigned to rungs at each block start by the
	// displacement criterion below, and each substep drifts/kicks only the
	// active rungs while the force solve computes sinks for them against
	// the frozen positions of everything else.  The tree rebuild reuses
	// the subtrees no active particle touched, bit for bit.  A block step
	// whose particles all sit on rung 0 is bit-identical to the global
	// step.  Requires a tree-based solver.  With Ranks > 1 the block
	// engine runs distributed: rungs, momentum epochs and activity flags
	// travel with the particles through the rank exchange, every rank
	// agrees on the block's substep schedule by summing per-rank rung
	// histograms, and each substep solves only the active sinks.
	BlockSteps int `json:"block_steps,omitempty"`
	// RungDisplacementFrac is the per-particle rung criterion: a particle
	// may stay on a rung only if one step on it moves the particle less
	// than this fraction of the mean interparticle separation.  0 means the
	// default of 0.1.
	RungDisplacementFrac float64 `json:"rung_displacement_frac,omitempty"`

	// Time integration.
	ZFinal float64 `json:"z_final"`
	NSteps int     `json:"n_steps"` // number of equal steps in ln(a)

	// CheckpointEvery, when positive, writes an atomic checkpoint (see
	// Simulation.CheckpointPath) after every CheckpointEvery-th completed
	// step except the run's last (step.CheckpointDue: the final snapshot is
	// that state) — on every fabric — so a crashed run can resume from the
	// last completed multiple instead of the beginning.  With BlockSteps > 0
	// checkpoints land only at synchronized block boundaries: mid-block,
	// block-stepped momenta sit at per-particle epochs a single-epoch
	// snapshot cannot represent, so a due checkpoint first closes the
	// leapfrog (Synchronize) at the block boundary, then writes.  A resumed run re-primes its rungs and
	// epochs from the synchronized snapshot, bit-identically.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// Output.
	OutputDir string `json:"output_dir"`

	// Analysis schedules in-situ measurements during Run; the zero value
	// never fires.  See AnalysisConfig and internal/analysis for the
	// schedule and determinism contract.
	Analysis AnalysisConfig `json:"analysis,omitempty"`
}

// AnalysisConfig schedules in-situ analysis outputs — halo catalogs, mass
// functions, power spectra measured from the live particle set while Run
// advances.  The zero value never fires.  Results reach the caller through
// analysis observers (WithAnalysisObserver, AddAnalysisObserver) and, unless
// NoFiles is set, as atomic JSON catalog files in the output directory named
// "<name>-analysis-<trigger>.json".
type AnalysisConfig struct {
	// Redshifts fire on the step that crosses each value (stateless crossing
	// detection on the run's step grid, so a checkpoint resume fires on
	// exactly the steps the uninterrupted run fires on).  Each value must lie
	// in [z_final, z_init).
	Redshifts []float64 `json:"redshifts,omitempty"`
	// EverySteps fires after every k-th completed step, on the same step grid
	// checkpoints preserve.
	EverySteps int `json:"every_steps,omitempty"`
	// AtEnd fires once after the run's final synchronize.
	AtEnd bool `json:"at_end,omitempty"`

	// Analyzer selection.  When none is set, all three run — an empty
	// selection is read as "everything", never as "nothing" (a schedule that
	// fires must measure something).
	Halos         bool `json:"halos,omitempty"`
	MassFunction  bool `json:"mass_function,omitempty"`
	PowerSpectrum bool `json:"power_spectrum,omitempty"`

	// Synchronize closes the leapfrog before every scheduled measurement, so
	// momenta refer to the output epoch.  The built-in analyzers read only
	// positions and are exact either way; block-stepped runs whose momenta
	// sit at per-particle epochs synchronize regardless (the same gate
	// checkpoints use).  A mid-run synchronize restarts the leapfrog at the
	// output epoch: the trajectory afterwards is second-order accurate but
	// not bit-identical to a run without the output, while runs sharing a
	// schedule stay bit-identical to each other.
	Synchronize bool `json:"synchronize,omitempty"`
	// NoFiles suppresses the catalog files; results then reach only the
	// registered analysis observers.
	NoFiles bool `json:"no_files,omitempty"`

	// Analyzer parameters; zero values mean the documented defaults.
	LinkingLength float64 `json:"linking_length,omitempty"` // FOF b (0 = 0.2)
	MinMembers    int     `json:"min_members,omitempty"`    // FOF cut (0 = 20, 1 = no cut)
	MassBins      int     `json:"mass_bins,omitempty"`      // mass-function bins (0 = 16)
	Mesh          int     `json:"mesh,omitempty"`           // P(k) grid per side (0 = 2*NGrid)
	MaxHalos      int     `json:"max_halos,omitempty"`      // per-halo entries kept in the catalog (0 = all)
}

// Enabled reports whether the configuration schedules any output.
func (a AnalysisConfig) Enabled() bool { return !a.schedule().Empty() }

// schedule converts the scheduling fields to the internal form.
func (a AnalysisConfig) schedule() analysis.Schedule {
	return analysis.Schedule{Redshifts: a.Redshifts, EverySteps: a.EverySteps, AtEnd: a.AtEnd}
}

// DefaultConfig returns a small but complete cosmological configuration.
func DefaultConfig() Config {
	return Config{
		Name:                  "quick-box",
		Cosmology:             "planck2013",
		BoxSize:               128,
		NGrid:                 32,
		ZInit:                 24,
		Seed:                  12345,
		Use2LPT:               true,
		UseDEC:                true,
		Solver:                SolverTree,
		Order:                 4,
		ErrTol:                1e-5,
		MAC:                   "abs",
		Theta:                 0.6,
		BackgroundSubtraction: true,
		WS:                    1,
		LatticeOrder:          2,
		Kernel:                "dehnen-k1",
		SofteningFrac:         1.0 / 20.0,
		PMGrid:                64,
		Asmth:                 1.25,
		Incremental:           true,
		ZFinal:                0,
		NSteps:                32,
	}
}

// Validate checks the configuration for obvious inconsistencies.
func (c *Config) Validate() error {
	// Name is interpolated into file paths under OutputDir (CheckpointPath,
	// OutputPath, AnalysisPath); a separator or a ".." component would let a
	// crafted name escape the output directory.
	if strings.ContainsAny(c.Name, `/\`) || strings.Contains(c.Name, "..") || strings.ContainsRune(c.Name, 0) {
		return fmt.Errorf("config: name %q must not contain path separators, \"..\" or NUL", c.Name)
	}
	if c.BoxSize <= 0 {
		return fmt.Errorf("config: box_size must be positive")
	}
	if c.NGrid < 2 {
		return fmt.Errorf("config: n_grid must be at least 2")
	}
	if c.ZFinal <= -1 {
		// a = 1/(1+z): z = -1 is the infinite future, below it a is negative.
		return fmt.Errorf("config: z_final (%g) must exceed -1", c.ZFinal)
	}
	if c.ZInit <= c.ZFinal {
		return fmt.Errorf("config: z_init (%g) must exceed z_final (%g)", c.ZInit, c.ZFinal)
	}
	if c.NSteps < 1 {
		return fmt.Errorf("config: n_steps must be at least 1")
	}
	if _, err := cosmo.ByName(c.Cosmology); err != nil {
		return err
	}
	switch c.Solver {
	case SolverTree, SolverTreePM, SolverPM, SolverDirect:
	default:
		return fmt.Errorf("config: unknown solver %q", c.Solver)
	}
	if _, ok := softening.ParseKernel(c.Kernel); !ok {
		return fmt.Errorf("config: unknown kernel %q", c.Kernel)
	}
	if c.MAC != "" && c.MAC != "abs" && c.MAC != "bh" {
		return fmt.Errorf("config: mac must be \"abs\" or \"bh\"")
	}
	if c.Order < 0 || c.Order > 8 {
		return fmt.Errorf("config: order must be between 0 and 8")
	}
	// The far-lattice tensors are built at order + lattice_order; beyond the
	// tabulated orders multipole.Table panics inside the first solve.
	if c.LatticeOrder < 0 || c.Order+c.LatticeOrder > multipole.MaxTableOrder {
		return fmt.Errorf("config: lattice_order must be between 0 and %d for order %d (order + lattice_order <= %d)",
			multipole.MaxTableOrder-c.Order, c.Order, multipole.MaxTableOrder)
	}
	if c.WS < 0 || c.Workers < 0 || c.PMGrid < 0 {
		return fmt.Errorf("config: ws (%d), workers (%d) and pm_grid (%d) must not be negative", c.WS, c.Workers, c.PMGrid)
	}
	if c.Ranks < 0 {
		return fmt.Errorf("config: ranks must not be negative")
	}
	if c.Ranks > 1 && c.Solver != SolverTree {
		return fmt.Errorf("config: ranks > 1 requires the tree solver, not %q", c.Solver)
	}
	switch c.Transport {
	case "", "chan":
	case "tcp":
		if c.Ranks < 2 {
			return fmt.Errorf("config: transport \"tcp\" requires ranks > 1")
		}
	default:
		return fmt.Errorf("config: transport must be \"chan\" or \"tcp\", not %q", c.Transport)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("config: checkpoint_every must not be negative")
	}
	// checkpoint_every + block_steps was rejected until the block engine
	// learned to close the leapfrog before a due checkpoint (mid-block
	// momenta sit at per-particle epochs a single-epoch snapshot cannot
	// represent); checkpoints now land only at synchronized block
	// boundaries, so the combination is valid.
	if c.BlockSteps < 0 || c.BlockSteps > step.MaxRungs {
		return fmt.Errorf("config: block_steps must be between 0 and %d", step.MaxRungs)
	}
	if c.BlockSteps > 0 && c.Solver != SolverTree && c.Solver != SolverTreePM {
		return fmt.Errorf("config: block_steps requires a tree-based solver (tree or treepm), not %q", c.Solver)
	}
	// block_steps + ranks > 1 was rejected while activity masks stopped at
	// the rank boundary; rungs, momentum epochs and flags now travel with
	// the particles through the exchange and the ranks agree on each
	// block's schedule by a rung-histogram reduction, so the distributed
	// block composition is valid (the solver constraint above still
	// applies: ranks > 1 runs the distributed tree).
	if c.RungDisplacementFrac < 0 {
		return fmt.Errorf("config: rung_displacement_frac must not be negative")
	}
	if c.RCut < 0 {
		return fmt.Errorf("config: rcut must not be negative")
	}
	if c.Solver == SolverTreePM {
		// The short-range walk covers replica images with a single shell, so
		// the truncation radius must stay inside the half box.
		if rcut := c.treeConfig().SplitRCut; rcut >= c.BoxSize/2 {
			return fmt.Errorf("config: treepm short-range cutoff %g reaches half the box %g; raise pm_grid or lower asmth/rcut",
				rcut, c.BoxSize/2)
		}
	}
	if err := c.Analysis.schedule().Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	for _, z := range c.Analysis.Redshifts {
		// A crossing outside [z_final, z_init) never fires; surface the
		// mistake instead of silently producing nothing.
		if z >= c.ZInit || z < c.ZFinal {
			return fmt.Errorf("config: analysis redshift %g outside the run (z_final %g <= z < z_init %g)",
				z, c.ZFinal, c.ZInit)
		}
	}
	if c.Transport == "tcp" && (len(c.Analysis.Redshifts) > 0 || c.Analysis.EverySteps > 0) {
		// Supervised worker processes advance without the in-process
		// observer loop; only the end-of-run catalog (measured by the
		// supervisor from the gathered snapshot) is available there.
		return fmt.Errorf("config: analysis redshift/cadence outputs require an in-process run; transport \"tcp\" supports only at_end")
	}
	if c.Analysis.Enabled() {
		if err := c.analysisOptions().Validate(); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	return nil
}

// analysisOptions derives the analyzer options the scheduled analysis runs
// with: box, worker count and halo-finder parameters inherited from the
// run's own (the finders take box and worker count from analysis.Options),
// the P(k) mesh defaulting to 2*NGrid, and an empty analyzer selection
// reading as all three.
func (c *Config) analysisOptions() analysis.Options {
	a := c.Analysis
	halos, mf, pk := a.Halos, a.MassFunction, a.PowerSpectrum
	if !halos && !mf && !pk {
		halos, mf, pk = true, true, true
	}
	mesh := a.Mesh
	if mesh == 0 {
		mesh = 2 * c.NGrid
	}
	return analysis.Options{
		BoxSize:       c.BoxSize,
		Workers:       c.Workers,
		Halos:         halos,
		MassFunction:  mf,
		PowerSpectrum: pk,
		Halo: halo.Options{
			LinkingLength: a.LinkingLength,
			MinMembers:    a.MinMembers,
		},
		MassBins: a.MassBins,
		Mesh:     mesh,
		MaxHalos: a.MaxHalos,
	}
}

// treeConfig derives the tree configuration of the configured solver — the
// one Config -> core.TreeConfig translation.  Under SolverTreePM it is the
// short-range tree of the composite: the force-split scale comes from the
// mesh options, background subtraction and the far lattice are off (the mesh
// owns the mean density and the infinite replica sum), and a single replica
// shell covers the cutoff (Validate pins it inside the half box).
func (c *Config) treeConfig() core.TreeConfig {
	tc := core.TreeConfig{
		Order:                 c.Order,
		ErrTol:                c.ErrTol,
		MAC:                   c.macType(),
		Theta:                 c.Theta,
		Kernel:                c.kernel(),
		Eps:                   c.SofteningLength(),
		G:                     cosmo.G,
		Periodic:              true,
		BoxSize:               c.BoxSize,
		BackgroundSubtraction: c.BackgroundSubtraction,
		WS:                    c.WS,
		LatticeOrder:          c.LatticeOrder,
		Workers:               c.Workers,
		Incremental:           c.Incremental,
	}
	if c.Solver == SolverTreePM {
		opt := c.pmOptions()
		rs := opt.Asmth * c.BoxSize / float64(opt.Mesh)
		tc.BackgroundSubtraction = false
		tc.LatticeOrder = 0
		tc.WS = 1
		tc.SplitRS = rs
		tc.SplitRCut = opt.RCut * rs
	}
	return tc
}

// pmOptions derives the mesh-solver options NewForceSolver hands to
// pm.NewSolver: a pure PM solver runs without a force split (Asmth 0), the
// TreePM composite defaults to the GADGET-2 split of 1.25 mesh cells.
func (c *Config) pmOptions() pm.Options {
	mesh := c.PMGrid
	if mesh == 0 {
		mesh = 2 * c.NGrid
	}
	asmth := c.Asmth
	if c.Solver == SolverPM {
		asmth = 0
	} else if asmth == 0 {
		asmth = 1.25
	}
	rcut := c.RCut
	if rcut == 0 {
		rcut = 4.5
	}
	return pm.Options{
		Mesh:          mesh,
		BoxSize:       c.BoxSize,
		DeconvolveCIC: true,
		Asmth:         asmth,
		RCut:          rcut,
		Eps:           c.SofteningLength(),
		Workers:       c.Workers,
	}
}

// macType converts the MAC string.
func (c *Config) macType() traverse.MACType {
	if c.MAC == "bh" {
		return traverse.MACBarnesHut
	}
	return traverse.MACAbsoluteError
}

// kernel returns the parsed smoothing kernel.
func (c *Config) kernel() softening.Kernel {
	k, _ := softening.ParseKernel(c.Kernel)
	return k
}

// SofteningLength returns the absolute smoothing scale in Mpc/h.
func (c *Config) SofteningLength() float64 {
	if c.Softening > 0 {
		return c.Softening
	}
	frac := c.SofteningFrac
	if frac == 0 {
		frac = 1.0 / 20.0
	}
	sep := c.BoxSize / float64(c.NGrid)
	return frac * sep
}

// dlnA is the run's step size: NSteps equal steps in ln(a) from the step
// grid's anchor aInit to ZFinal.  Every stepping loop and every resume takes
// it from here, so all of them walk the same grid bit for bit.
func (c *Config) dlnA(aInit float64) float64 {
	aFinal := 1 / (1 + c.ZFinal)
	return math.Log(aFinal/aInit) / float64(c.NSteps)
}

// DecodeConfig reads one JSON configuration document layered over
// DefaultConfig — a document states only what differs — and validates it.
// Keys Config does not have are rejected, and so is anything after the
// document but whitespace.  It is the one decoder: LoadConfig reads files
// through it and a POST /api/sims body (internal/serve) is decoded by it.
func DecodeConfig(r io.Reader) (Config, error) {
	c := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return c, fmt.Errorf("config: unexpected content after the configuration object")
	}
	return c, c.Validate()
}

// LoadConfig reads a JSON configuration file through DecodeConfig.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return DefaultConfig(), err
	}
	defer f.Close()
	c, err := DecodeConfig(f)
	if err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Save writes the configuration as JSON.
func (c Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
