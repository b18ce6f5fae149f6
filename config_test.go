package twohot

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// partialConfigDoc is a config file that states only what differs from the
// defaults (the serve submit handler's test decodes the same bytes).
const partialConfigDoc = `{"name":"x","cosmology":"planck2013","box_size":32,"n_grid":8,"z_init":24,"n_steps":2,"solver":"tree","kernel":"dehnen-k1"}`

// TestLoadConfigLayersOverDefaults pins the one way a JSON document becomes a
// Config (DecodeConfig, which LoadConfig reads files through): layered over
// DefaultConfig (an omitted knob keeps its default — background subtraction,
// 2LPT, DEC, the far lattice and incremental rebuilds stay on), unknown keys
// and trailing content rejected, and Save -> LoadConfig an identity.
func TestLoadConfigLayersOverDefaults(t *testing.T) {
	dir := t.TempDir()
	load := func(doc string) (Config, error) {
		path := filepath.Join(dir, "cfg.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadConfig(path)
	}

	want := DefaultConfig()
	want.Name, want.BoxSize, want.NGrid, want.NSteps = "x", 32, 8, 2
	got, err := load(partialConfigDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("partial document did not layer over the defaults:\n got %+v\nwant %+v", got, want)
	}

	bogus := strings.Replace(partialConfigDoc, "}", `,"bogus_key":1}`, 1)
	if _, err := load(bogus); err == nil || !strings.Contains(err.Error(), "bogus_key") {
		t.Errorf("unknown key: got error %v, want one naming bogus_key", err)
	}

	// One document per file: whitespace may follow it, nothing else may —
	// neither a second object (whose keys would otherwise go unchecked) nor
	// stray text.
	if got, err := load(partialConfigDoc + "\n\t \n"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("trailing whitespace: got %+v, %v", got, err)
	}
	for _, doc := range []string{
		`{"n_grid": 8} {"n_grid": 64, "bogus": 1} trailing garbage`,
		partialConfigDoc + ` {}`,
		partialConfigDoc + ` x`,
	} {
		if _, err := load(doc); err == nil || !strings.Contains(err.Error(), "after the configuration object") {
			t.Errorf("trailing content in %q: got error %v", doc, err)
		}
	}

	// Round trip with every defaulted knob moved off its default: a field
	// whose zero value Save omitted would come back as the default.
	off := DefaultConfig()
	off.Use2LPT, off.UseDEC, off.BackgroundSubtraction, off.Incremental = false, false, false, false
	off.LatticeOrder, off.Seed, off.PMGrid, off.Asmth, off.SofteningFrac = 0, 0, 0, 0, 0
	off.Softening, off.Ranks, off.CheckpointEvery = 0.1, 2, 3
	off.Analysis = AnalysisConfig{AtEnd: true, Redshifts: []float64{3, 1}, MassBins: 8}
	path := filepath.Join(dir, "off.json")
	if err := off.Save(path); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadConfig(path); err != nil || !reflect.DeepEqual(back, off) {
		t.Errorf("Save -> LoadConfig is not an identity (err %v):\n got %+v\nwant %+v", err, back, off)
	}
	// ... and stays one: a field with a non-zero default must not be omitempty.
	def := reflect.ValueOf(DefaultConfig())
	for i := 0; i < def.NumField(); i++ {
		f := def.Type().Field(i)
		if !def.Field(i).IsZero() && strings.Contains(f.Tag.Get("json"), "omitempty") {
			t.Errorf("Config.%s has a non-zero default and is omitempty: saving its zero value would load as the default", f.Name)
		}
	}
}

// TestConfigValidate is the table of accept/reject branches for the stepping
// and deployment combinations, with the distributed block-timestep rows
// spelled out: block_steps now composes with ranks > 1 (activity masks, rungs
// and momentum epochs travel the rank exchange) and with checkpoint_every
// (checkpoints land only at synchronized block boundaries), while the
// combinations that are still meaningless stay rejected.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" = must validate; otherwise a substring of the error
	}{
		{"default", func(c *Config) {}, ""},

		// Long-standing gates, kept in the table so the whole accept/reject
		// surface reads in one place.
		{"unknown solver", func(c *Config) { c.Solver = "warp-drive" }, "solver"},
		{"z_init below z_final", func(c *Config) { c.ZInit = 0; c.ZFinal = 5 }, "z_init"},
		{"unknown kernel", func(c *Config) { c.Kernel = "gaussian9000" }, "kernel"},
		{"ranks without tree", func(c *Config) { c.Ranks = 2; c.Solver = SolverPM }, "ranks > 1"},

		// Values that used to pass and then panic (or run on a non-finite
		// step grid) inside the first solve — on the serve path, taking the
		// whole process with them.
		{"lattice order beyond the tables, default order", func(c *Config) { c.LatticeOrder = 7 }, "lattice_order"},
		{"lattice order beyond the tables, order 8", func(c *Config) { c.Order = 8; c.LatticeOrder = 3 }, "lattice_order"},
		{"lattice order at the table limit", func(c *Config) { c.Order = 8; c.LatticeOrder = 2 }, ""},
		{"negative lattice order", func(c *Config) { c.LatticeOrder = -1 }, "lattice_order"},
		{"negative ws", func(c *Config) { c.WS = -1 }, "ws"},
		{"negative workers", func(c *Config) { c.Workers = -2 }, "workers"},
		{"negative pm grid", func(c *Config) { c.Solver = SolverTreePM; c.PMGrid = -4 }, "pm_grid"},
		{"z_final at the infinite future", func(c *Config) { c.ZFinal = -1 }, "z_final"},
		{"z_final below -1", func(c *Config) { c.ZFinal = -3 }, "z_final"},

		// Block stepping alone.
		{"block steps with tree", func(c *Config) { c.BlockSteps = 3 }, ""},
		{"block steps with treepm", func(c *Config) { c.BlockSteps = 3; c.Solver = SolverTreePM }, ""},
		{"block steps with pm", func(c *Config) { c.BlockSteps = 3; c.Solver = SolverPM }, "tree-based solver"},
		{"block steps with direct", func(c *Config) { c.BlockSteps = 3; c.Solver = SolverDirect }, "tree-based solver"},
		{"block steps beyond rung cap", func(c *Config) { c.BlockSteps = 64 }, "block_steps"},
		{"negative block steps", func(c *Config) { c.BlockSteps = -1 }, "block_steps"},
		{"negative displacement frac", func(c *Config) { c.RungDisplacementFrac = -1 }, "rung_displacement_frac"},

		// Block stepping over ranks: valid since the exchange carries the
		// per-particle stepping state and the ranks agree on each block's
		// schedule collectively.
		{"block steps over ranks", func(c *Config) { c.BlockSteps = 3; c.Ranks = 2 }, ""},
		{"block steps over ranks on tcp", func(c *Config) {
			c.BlockSteps = 3
			c.Ranks = 2
			c.Transport = "tcp"
		}, ""},
		// ranks > 1 still runs the distributed tree only, block or not.
		{"block steps over ranks with treepm", func(c *Config) {
			c.BlockSteps = 3
			c.Ranks = 2
			c.Solver = SolverTreePM
		}, "ranks > 1 requires the tree solver"},

		// Checkpointing against block boundaries: valid since due checkpoints
		// synchronize the leapfrog first.
		{"checkpoints with block steps", func(c *Config) { c.BlockSteps = 3; c.CheckpointEvery = 2 }, ""},
		{"checkpoints with block steps over ranks", func(c *Config) {
			c.BlockSteps = 3
			c.CheckpointEvery = 2
			c.Ranks = 2
			c.Transport = "tcp"
		}, ""},
		{"negative checkpoint cadence", func(c *Config) { c.CheckpointEvery = -1 }, "checkpoint_every"},

		// Transport gates, unchanged.
		{"tcp without ranks", func(c *Config) { c.Transport = "tcp" }, `transport "tcp"`},
		{"unknown transport", func(c *Config) { c.Transport = "carrier-pigeon" }, "transport"},

		// Name is interpolated into CheckpointPath/OutputPath/AnalysisPath;
		// a crafted name must not be able to escape OutputDir.
		{"name with slash", func(c *Config) { c.Name = "runs/box" }, "name"},
		{"name with backslash", func(c *Config) { c.Name = `runs\box` }, "name"},
		{"name with dotdot", func(c *Config) { c.Name = "..box" }, "name"},
		{"name escaping output dir", func(c *Config) { c.Name = "../../etc/passwd" }, "name"},
		{"empty name", func(c *Config) { c.Name = "" }, ""},
		{"dotted name", func(c *Config) { c.Name = "box.v2" }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate rejected the config: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted the config; want an error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
