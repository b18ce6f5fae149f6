package sdf

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"twohot/internal/particle"
	"twohot/internal/vec"
)

func sampleSnapshot(n int) *Snapshot {
	set := particle.New(n)
	for i := 0; i < n; i++ {
		f := float64(i)
		set.Append(vec.V3{f, 2 * f, 3 * f}, vec.V3{-f, 0.5 * f, f * f}, 1.5+f, int64(i*7))
	}
	return &Snapshot{
		Particles:        set,
		ScaleFac:         0.25,
		MomentumScaleFac: 0.245,
		BoxSize:          100,
		Cosmology:        "planck2013",
		Extra:            map[string]string{"git": "deadbeef"},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.sdf")
	s := sampleSnapshot(137)
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Particles.Len() != 137 {
		t.Fatalf("particle count %d", got.Particles.Len())
	}
	if got.ScaleFac != 0.25 || got.MomentumScaleFac != 0.245 || got.BoxSize != 100 {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.Cosmology != "planck2013" || got.Extra["git"] != "deadbeef" {
		t.Errorf("string metadata lost")
	}
	for i := 0; i < 137; i++ {
		if got.Particles.Pos[i] != s.Particles.Pos[i] ||
			got.Particles.Mom[i] != s.Particles.Mom[i] ||
			math.Abs(got.Particles.Mass[i]-s.Particles.Mass[i]) > 0 ||
			got.Particles.ID[i] != s.Particles.ID[i] {
			t.Fatalf("particle %d corrupted", i)
		}
	}
}

// TestStepGridRoundTrip pins the one reader/writer pair for the step-grid
// metadata: what SetStepGrid records survives a file round trip bit for bit,
// and a step count without a valid anchor is not honored.
func TestStepGridRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.sdf")
	s := sampleSnapshot(3)
	aInit := 1 / (1 + 24.0)
	s.SetStepGrid(7, aInit)
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if stepsDone, a := got.StepGrid(); stepsDone != 7 || a != aInit {
		t.Errorf("round trip gave (%d, %v), want (7, %v)", stepsDone, a, aInit)
	}
	if got.Extra["git"] != "deadbeef" {
		t.Error("SetStepGrid clobbered unrelated metadata")
	}
	for _, anchor := range []string{"", "0", "bogus"} {
		legacy := &Snapshot{ScaleFac: 0.3, Extra: map[string]string{"step": "3", "a_init": anchor}}
		if stepsDone, a := legacy.StepGrid(); stepsDone != 0 || a != 0.3 {
			t.Errorf("anchor %q: StepGrid gave (%d, %v), want a fresh grid (0, 0.3)", anchor, stepsDone, a)
		}
	}
}

// TestWriteRejectsMissingParticles: a snapshot without a particle set is an
// error, not a nil dereference, and leaves no file behind.
func TestWriteRejectsMissingParticles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.sdf")
	if err := Write(path, &Snapshot{ScaleFac: 0.5}); err == nil {
		t.Fatal("Write accepted a snapshot without particles")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("rejected Write left a file behind")
	}
}

func TestStripedRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "striped.sdf")
	s := sampleSnapshot(101)
	if err := WriteStriped(base, s, 4); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStriped(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Particles.Len() != 101 {
		t.Fatalf("striped read lost particles: %d", got.Particles.Len())
	}
	// Total mass is preserved regardless of the interleaving order.
	if math.Abs(got.Particles.TotalMass()-s.Particles.TotalMass()) > 1e-9 {
		t.Error("striped mass not conserved")
	}
}

func TestReadRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sdf")
	if err := Write(path, sampleSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path + ".missing"); err == nil {
		t.Error("expected error for missing file")
	}
}
