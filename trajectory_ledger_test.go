package twohot

// Trajectory ledger: testdata/trajectories.txt holds one row per reference
// run — the five benchmark workloads at their smoke sizes, the TCP cluster
// and a block-stepped pure tree — and this test fails whenever a run ends in
// a different state.  A change that moves a trajectory on purpose commits the
// regenerated rows, so the diff shows which runs moved and whether only the
// interaction counts moved or the bits did:
//
//	go test -run TestTrajectoryLedger -update-trajectories .
//
// A row is "<key> state=<crc> p2p=<n> cells=<n> catalogs=<n>/<crc>": the
// CRC-32 of the final positions and momenta in particle-ID order (the
// benchmark's state CRC), the particle-particle and cell interactions summed
// over every force solve of the run, and the count and CRC-32 of the encoded
// in-situ catalogs.  A field the run cannot observe reads "-".  Rows are
// sorted by key and keys are unique, so the file has one spelling per set of
// runs.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"twohot/internal/analysis"
	"twohot/internal/core"
	"twohot/internal/particle"
)

var updateTrajectories = flag.Bool("update-trajectories", false, "rewrite testdata/trajectories.txt with the current trajectories")

const ledgerPath = "testdata/trajectories.txt"

// ledgerRun is one reference run: its row key and its configuration.
type ledgerRun struct {
	key string
	cfg func(t *testing.T) Config
}

// ledgerConfig is the benchmark's base configuration: the defaults with a
// name, seed 1 and the given worker count.
func ledgerConfig(name string, workers int) Config {
	c := DefaultConfig()
	c.Name = name
	c.Seed = 1
	c.Workers = workers
	return c
}

// ledgerRuns re-declares the smoke sizes of bench/workloads.go (tier-1 cannot
// import the bench module) and adds the two run shapes the benchmark lacks.
func ledgerRuns() []ledgerRun {
	treeCosmo := func(t *testing.T) Config {
		c := ledgerConfig("tree-cosmo", 2)
		c.Solver = SolverTree
		c.NGrid, c.BoxSize, c.LatticeOrder = 8, 16, 1
		c.ZInit, c.ZFinal, c.NSteps = 24, 8, 2
		return c
	}
	treeRanks2 := func(t *testing.T) Config {
		c := ledgerConfig("tree-ranks2", 1)
		c.Solver = SolverTree
		c.Ranks, c.Transport = 2, "chan"
		c.ErrTol, c.LatticeOrder = 1e-3, 1
		c.NGrid, c.BoxSize = 8, 16
		c.ZInit, c.ZFinal, c.NSteps = 24, 2, 3
		return c
	}
	return []ledgerRun{
		{"tree.cosmo", treeCosmo},
		{"treepm.cosmo", func(t *testing.T) Config {
			c := ledgerConfig("treepm-cosmo", 2)
			c.Solver = SolverTreePM
			c.NGrid, c.BoxSize, c.PMGrid = 8, 16, 16
			c.ZInit, c.ZFinal, c.NSteps = 24, 0, 4
			c.CheckpointEvery = 2
			c.Analysis.EverySteps = 2
			c.Analysis.AtEnd = true
			c.OutputDir = t.TempDir()
			return c
		}},
		{"treepm.block", func(t *testing.T) Config {
			c := ledgerConfig("treepm-block", 2)
			c.Solver = SolverTreePM
			c.NGrid, c.BoxSize, c.PMGrid = 8, 21, 16
			c.ZInit, c.ZFinal, c.NSteps = 24, 0, 3
			c.BlockSteps = 3
			return c
		}},
		{"tree.ranks2", treeRanks2},
		// serve.burst's per-job configuration, run in process.
		{"serve.burst", func(t *testing.T) Config {
			c := ledgerConfig("burst", 1)
			c.Solver = SolverTreePM
			c.NGrid, c.BoxSize, c.PMGrid = 6, 16, 16
			c.ZInit, c.ZFinal, c.NSteps = 24, 4, 8
			return c
		}},
		{"tree.ranks2+tcp", func(t *testing.T) Config {
			c := treeRanks2(t)
			c.Transport = "tcp"
			c.OutputDir = t.TempDir()
			return c
		}},
		// Deep enough, with a tight displacement limit, that several rungs
		// are occupied.
		{"tree.cosmo+block3", func(t *testing.T) Config {
			c := treeCosmo(t)
			c.ZFinal, c.NSteps = 0, 3
			c.BlockSteps = 3
			c.RungDisplacementFrac = 0.01
			return c
		}},
	}
}

// ledgerKey is the form every row key takes: lower case, dot-separated names,
// variants after a '+'.
var ledgerKey = regexp.MustCompile(`^[a-z0-9]+(\.[a-z0-9]+)*(\+[a-z0-9]+)*$`)

// ledgerStateCRC checksums positions and momenta in particle-ID order, as the
// benchmark's state CRC does.
func ledgerStateCRC(t *testing.T, p *particle.Set) string {
	t.Helper()
	n := p.Len()
	buf := make([]byte, n*48)
	seen := make([]bool, n)
	for i, id := range p.ID {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("particle IDs are not a permutation of 0..%d (id %d)", n-1, id)
		}
		seen[id] = true
		off := int(id) * 48
		for k := 0; k < 3; k++ {
			binary.LittleEndian.PutUint64(buf[off+8*k:], math.Float64bits(p.Pos[i][k]))
			binary.LittleEndian.PutUint64(buf[off+24+8*k:], math.Float64bits(p.Mom[i][k]))
		}
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(buf))
}

// ledgerRow runs one reference run and renders its row.
func ledgerRow(t *testing.T, run ledgerRun) string {
	t.Helper()
	cfg := run.cfg(t)
	if cfg.Transport == "tcp" {
		// The supervisor sees the gathered state, not the workers' solves.
		path, err := RunClusterSupervised(cfg, ClusterRunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", run.key, err)
		}
		return fmt.Sprintf("%s state=%s p2p=- cells=- catalogs=-", run.key, ledgerStateCRC(t, readSnapshot(t, path).Particles))
	}
	var p2p, cells int64
	catalogs := crc32.NewIEEE()
	nCatalogs := 0
	sim, err := New(cfg, WithAnalysisObserver(AnalysisFunc(func(info AnalysisInfo) {
		data, err := analysis.EncodeCatalog(info.Catalog)
		if err != nil {
			t.Errorf("%s: %v", run.key, err)
		}
		catalogs.Write(data)
		nCatalogs++
	})))
	if err != nil {
		t.Fatalf("%s: %v", run.key, err)
	}
	sim.AddObserver(ObserverFuncs{Force: func(res *core.Result) {
		p2p += res.Counters.P2P
		cells += res.Counters.CellInteractions()
	}})
	if err := sim.Run(); err != nil {
		t.Fatalf("%s: %v", run.key, err)
	}
	if cfg.BlockSteps > 1 && len(sim.RungHistogram()) < 2 {
		t.Errorf("%s stayed on one rung (%v): its row pins no multi-rung block", run.key, sim.RungHistogram())
	}
	cat := "-"
	if cfg.Analysis.Enabled() {
		cat = fmt.Sprintf("%d/%08x", nCatalogs, catalogs.Sum32())
	}
	return fmt.Sprintf("%s state=%s p2p=%d cells=%d catalogs=%s", run.key, ledgerStateCRC(t, sim.P), p2p, cells, cat)
}

// TestTrajectoryLedger runs every reference run and compares its row with
// the committed ledger.
func TestTrajectoryLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the ledger's bits are amd64's: on %s the compiler may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("seven full runs, among them a multi-process cluster, skipped in -short")
	}
	var rows []string
	seen := map[string]bool{}
	for _, run := range ledgerRuns() {
		if !ledgerKey.MatchString(run.key) || seen[run.key] {
			t.Fatalf("ledger key %q is malformed or repeated", run.key)
		}
		seen[run.key] = true
		rows = append(rows, ledgerRow(t, run))
	}
	sort.Strings(rows)
	got := strings.Join(rows, "\n") + "\n"
	if *updateTrajectories {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log(ledgerPath + " rewritten")
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("missing ledger: %v\n(run `go test -run TestTrajectoryLedger -update-trajectories .`)", err)
	}
	if got != string(want) {
		t.Fatalf("a trajectory moved.\n--- %s (committed)\n+++ current\n%s\n"+
			"If the move is intended, regenerate with `go test -run TestTrajectoryLedger -update-trajectories .` "+
			"and say in the change why the rows moved.", ledgerPath, surfaceDiff(string(want), got))
	}
}
