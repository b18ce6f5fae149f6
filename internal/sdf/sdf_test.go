package sdf

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twohot/internal/particle"
	"twohot/internal/vec"
)

func sampleSnapshot(n int) *Snapshot {
	set := particle.New(n)
	for i := 0; i < n; i++ {
		f := float64(i)
		set.Append(vec.V3{f, 2 * f, 3 * f}, vec.V3{-f, 0.5 * f, f * f}, 1.5+f, int64(i*7))
		set.Work[i] = math.Pi*f + 0.1
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
			got.Particles.ID[i] != s.Particles.ID[i] ||
			got.Particles.Work[i] != s.Particles.Work[i] {
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

// withColumns rewrites a file written by this package to declare and carry
// only the first n of its nine columns (n < 9), or a tenth zero column
// (n == 10), with a fresh checksum footer — the files other layouts would be.
func withColumns(t *testing.T, data []byte, n int) []byte {
	t.Helper()
	at := strings.Index(string(data), headerTerminator)
	if at < 0 {
		t.Fatal("no header terminator")
	}
	header, body := string(data[:at+len(headerTerminator)]), data[at+len(headerTerminator):len(data)-4]
	switch {
	case n == 10:
		header = strings.Replace(header, "\tdouble work;\n", "\tdouble work;\n\tdouble extra;\n", 1)
	case n <= 8:
		header = strings.Replace(header, "\tdouble work;\n", "", 1)
		if n == 7 {
			header = strings.Replace(header, "\tint64_t ident;\n", "", 1)
		}
	}
	const rec = 8 * 9
	out := []byte(header)
	for ; len(body) >= rec; body = body[rec:] {
		if n == 10 {
			out = append(append(out, body[:rec]...), make([]byte, 8)...)
		} else {
			out = append(out, body[:8*n]...)
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestReadColumnLayouts pins which record layouts the reader takes: the
// nine-column one it writes, the eight-column one from before the work column
// existed (every weight reads as 1, everything else exactly), and nothing
// else.
func TestReadColumnLayouts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.sdf")
	want := sampleSnapshot(11)
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := readBytes(withColumns(t, data, 8))
	if err != nil {
		t.Fatalf("eight-column file rejected: %v", err)
	}
	if legacy.Particles.Len() != want.Particles.Len() {
		t.Fatalf("eight-column file read %d of %d particles", legacy.Particles.Len(), want.Particles.Len())
	}
	for i := range legacy.Particles.ID {
		g, w := legacy.Particles, want.Particles
		if g.Pos[i] != w.Pos[i] || g.Mom[i] != w.Mom[i] || g.Mass[i] != w.Mass[i] || g.ID[i] != w.ID[i] {
			t.Fatalf("eight-column file: particle %d corrupted", i)
		}
		if g.Work[i] != 1 {
			t.Fatalf("eight-column file: particle %d reads work %v, want 1", i, g.Work[i])
		}
	}
	for _, n := range []int{7, 10} {
		if _, err := readBytes(withColumns(t, data, n)); err == nil || !strings.Contains(err.Error(), "unsupported struct layout") {
			t.Errorf("%d-column file: got %v, want an unsupported-layout error", n, err)
		}
	}
}
