package sdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"twohot/internal/particle"
	"twohot/internal/vec"
)

// headerTerminator separates the ASCII header from the binary body.
const headerTerminator = "# SDF-EOH\n"

// checksumParam announces the integrity footer in the header.  Files written
// by this package carry checksumCRC32: a little-endian CRC32 (IEEE) of every
// byte from the start of the file through the last particle record, appended
// after the body.  Readers verify it, so a checkpoint truncated or corrupted
// anywhere — including cleanly at a record boundary, which the record loop
// alone cannot detect — is rejected instead of silently resuming a damaged
// simulation.  Files without the parameter (pre-checksum format) still read.
const (
	checksumParam = "checksum"
	checksumCRC32 = "crc32"
)

// Header holds the parsed metadata of an SDF file.
type Header struct {
	Parameters map[string]string
	// Struct fields in declaration order; this reproduction always writes
	// the canonical particle record below but will refuse to read layouts
	// it does not understand.
	Fields []string
	NBody  int64
}

// canonicalFields is the particle record layout written by this package:
// nine little-endian 8-byte columns.  work is the per-particle interaction
// count of the last force solve — the weight that steers the next domain
// decomposition, which a resumed run must see to decompose like the
// uninterrupted one.  Files from before the column existed declare the first
// legacyFields columns only and read with the fresh-load weight, 1.
var canonicalFields = []string{"x", "y", "z", "vx", "vy", "vz", "mass", "ident", "work"}

const legacyFields = 8

// Float returns a float64 parameter.
func (h *Header) Float(key string) (float64, bool) {
	s, ok := h.Parameters[key]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Snapshot couples the particle data with the metadata needed to interpret
// it.
type Snapshot struct {
	Particles *particle.Set
	ScaleFac  float64 // scale factor of the positions
	// MomentumScaleFac is the scale factor at which the canonical momenta
	// are valid; it differs from ScaleFac by half a step in a leapfrog
	// checkpoint.
	MomentumScaleFac float64
	BoxSize          float64
	Cosmology        string
	Extra            map[string]string
}

// SetStepGrid records the snapshot's place on its run's logarithmic step grid:
// the number of completed steps and the scale factor the grid is anchored at.
// Every checkpoint writer — single-process and cluster alike — goes through
// here, which is what makes their checkpoints interchangeable.
func (s *Snapshot) SetStepGrid(stepsDone int, aInit float64) {
	if s.Extra == nil {
		s.Extra = map[string]string{}
	}
	s.Extra["step"] = strconv.Itoa(stepsDone)
	s.Extra["a_init"] = strconv.FormatFloat(aInit, 'g', 17, 64)
}

// StepGrid returns what SetStepGrid recorded.  A snapshot without a valid
// anchor (initial conditions, or a checkpoint from before "a_init" existed)
// starts a fresh grid at its own epoch, (0, ScaleFac): a step count without
// the anchor it counts from would make a restart compute a full-grid step
// size yet execute only the remaining steps, so the two are honored together
// or not at all.
func (s *Snapshot) StepGrid() (stepsDone int, aInit float64) {
	a, err := strconv.ParseFloat(s.Extra["a_init"], 64)
	if err != nil || a <= 0 {
		return 0, s.ScaleFac
	}
	if n, err := strconv.Atoi(s.Extra["step"]); err == nil && n > 0 {
		stepsDone = n
	}
	return stepsDone, a
}

// Write stores the snapshot at path atomically: the bytes go to a temporary
// file in the same directory, are fsynced, and are renamed over path only
// once complete.  A crash at any point leaves either the previous checkpoint
// or the new one — never a half-written file under the checkpoint's name.
func Write(path string, s *Snapshot) error {
	if s == nil || s.Particles == nil {
		return fmt.Errorf("sdf: write %s: snapshot has no particle set", path)
	}
	return WriteAtomic(path, func(f *os.File) error { return writeSnapshot(f, s) })
}

// WriteAtomic runs fill against a temporary file in path's directory and
// atomically renames it into place, with the same crash discipline Write
// gives snapshots: the data is fsynced before the rename and the directory
// entry after it, and the temporary is removed on any failure.  It is the
// write path for every file the simulation emits — snapshots, checkpoints
// and in-situ analysis catalogs — so a crash mid-write never leaves a
// half-written file under the final name.
func WriteAtomic(path string, fill func(f *os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fill(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir flushes the directory entry so the rename itself survives a crash.
// Best-effort: not every platform supports fsync on a directory handle.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// writeSnapshot streams the header, body, and checksum footer to w.
func writeSnapshot(out io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(out)
	crc := crc32.NewIEEE()
	// Everything before the footer feeds the running checksum.
	w := io.MultiWriter(bw, crc)

	n := s.Particles.Len()
	fmt.Fprintf(w, "# SDF 1.0\n")
	params := map[string]string{
		"npart":       strconv.Itoa(n),
		"a":           strconv.FormatFloat(s.ScaleFac, 'g', 17, 64),
		"a_momentum":  strconv.FormatFloat(s.MomentumScaleFac, 'g', 17, 64),
		"boxsize":     strconv.FormatFloat(s.BoxSize, 'g', 17, 64),
		"cosmology":   s.Cosmology,
		"units_len":   "Mpc/h",
		"units_mass":  "1e10 Msun/h",
		"units_vel":   "km/s",
		"code":        "twohot",
		"sdf_version": "1.0",
		checksumParam: checksumCRC32,
	}
	for k, v := range s.Extra {
		params["x_"+k] = v
	}
	keysSorted := make([]string, 0, len(params))
	for k := range params {
		keysSorted = append(keysSorted, k)
	}
	sort.Strings(keysSorted)
	for _, k := range keysSorted {
		fmt.Fprintf(w, "%s = %s;\n", k, params[k])
	}
	fmt.Fprintf(w, "struct {\n")
	fmt.Fprintf(w, "\tdouble x, y, z;\n")
	fmt.Fprintf(w, "\tdouble vx, vy, vz;\n")
	fmt.Fprintf(w, "\tdouble mass;\n")
	fmt.Fprintf(w, "\tint64_t ident;\n")
	fmt.Fprintf(w, "\tdouble work;\n")
	fmt.Fprintf(w, "}[%d];\n", n)
	fmt.Fprint(w, headerTerminator)

	p := s.Particles
	rec := make([]byte, 8*len(canonicalFields))
	put := func(col int, v float64) {
		binary.LittleEndian.PutUint64(rec[8*col:], math.Float64bits(v))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			put(k, p.Pos[i][k])
			put(3+k, p.Mom[i][k])
		}
		put(6, p.Mass[i])
		binary.LittleEndian.PutUint64(rec[8*7:], uint64(p.ID[i]))
		put(8, p.Work[i])
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	// Footer: checksum of header + body, itself outside the checksum.
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read loads a snapshot from path.
func Read(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(bufio.NewReader(f))
}

// crcTeeReader feeds every byte consumed from the underlying reader into a
// running checksum, so ReadFrom can verify the footer against exactly the
// bytes it parsed.
type crcTeeReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (t *crcTeeReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.crc.Write(p[:n])
	return n, err
}

func (t *crcTeeReader) ReadString(delim byte) (string, error) {
	s, err := t.r.ReadString(delim)
	t.crc.Write([]byte(s))
	return s, err
}

// ReadFrom parses a snapshot from a reader.
func ReadFrom(br *bufio.Reader) (*Snapshot, error) {
	r := &crcTeeReader{r: br, crc: crc32.NewIEEE()}
	h := &Header{Parameters: map[string]string{}}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("sdf: unterminated header: %w", err)
		}
		if line == headerTerminator {
			break
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "" || strings.HasPrefix(trimmed, "#"):
			continue
		case strings.HasPrefix(trimmed, "struct"):
			// parse the struct block to the closing brace line
			var structLines []string
			for {
				l, err := r.ReadString('\n')
				if err != nil {
					return nil, fmt.Errorf("sdf: unterminated struct: %w", err)
				}
				ls := strings.TrimSpace(l)
				if strings.HasPrefix(ls, "}") {
					// "}[N];"
					open := strings.Index(ls, "[")
					close := strings.Index(ls, "]")
					if open < 0 || close < open {
						return nil, fmt.Errorf("sdf: malformed struct count %q", ls)
					}
					n, err := strconv.ParseInt(ls[open+1:close], 10, 64)
					if err != nil {
						return nil, fmt.Errorf("sdf: bad particle count: %w", err)
					}
					if n < 0 {
						return nil, fmt.Errorf("sdf: negative particle count %d", n)
					}
					h.NBody = n
					break
				}
				structLines = append(structLines, ls)
			}
			for _, sl := range structLines {
				sl = strings.TrimSuffix(sl, ";")
				parts := strings.Fields(sl)
				if len(parts) < 2 {
					continue
				}
				for _, name := range strings.Split(strings.Join(parts[1:], ""), ",") {
					if name != "" {
						h.Fields = append(h.Fields, name)
					}
				}
			}
		case strings.Contains(trimmed, "="):
			kv := strings.SplitN(strings.TrimSuffix(trimmed, ";"), "=", 2)
			h.Parameters[strings.TrimSpace(kv[0])] = strings.TrimSpace(kv[1])
		}
	}
	if len(h.Fields) != len(canonicalFields) && len(h.Fields) != legacyFields {
		return nil, fmt.Errorf("sdf: unsupported struct layout %v", h.Fields)
	}
	for i, f := range h.Fields {
		if f != canonicalFields[i] {
			return nil, fmt.Errorf("sdf: unsupported struct layout %v", h.Fields)
		}
	}

	// Preallocate conservatively: a corrupt header can claim any particle
	// count, and nothing before this point has validated it against the
	// actual body length.  The append loop below grows as needed and fails
	// cleanly on a truncated body.
	prealloc := h.NBody
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	s := &Snapshot{Particles: particle.New(int(prealloc)), Extra: map[string]string{}}
	if v, ok := h.Float("a"); ok {
		s.ScaleFac = v
	}
	if v, ok := h.Float("a_momentum"); ok {
		s.MomentumScaleFac = v
	} else {
		s.MomentumScaleFac = s.ScaleFac
	}
	if v, ok := h.Float("boxsize"); ok {
		s.BoxSize = v
	}
	s.Cosmology = h.Parameters["cosmology"]
	for k, v := range h.Parameters {
		if strings.HasPrefix(k, "x_") {
			s.Extra[strings.TrimPrefix(k, "x_")] = v
		}
	}

	rec := make([]byte, 8*len(h.Fields))
	f64 := func(col int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(rec[8*col:]))
	}
	for i := int64(0); i < h.NBody; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, fmt.Errorf("sdf: truncated body at particle %d: %w", i, err)
		}
		s.Particles.Append(
			vec.V3{f64(0), f64(1), f64(2)},
			vec.V3{f64(3), f64(4), f64(5)},
			f64(6), int64(binary.LittleEndian.Uint64(rec[8*7:])))
		if len(h.Fields) > legacyFields {
			s.Particles.Work[i] = f64(8)
		}
	}

	switch h.Parameters[checksumParam] {
	case "":
		// Pre-checksum file: nothing to verify.
	case checksumCRC32:
		want := r.crc.Sum32()
		var foot [4]byte
		if _, err := io.ReadFull(br, foot[:]); err != nil {
			return nil, fmt.Errorf("sdf: missing checksum footer (file truncated): %w", err)
		}
		if got := binary.LittleEndian.Uint32(foot[:]); got != want {
			return nil, fmt.Errorf("sdf: checksum mismatch (stored %08x, computed %08x): file corrupted or truncated", got, want)
		}
	default:
		return nil, fmt.Errorf("sdf: unsupported checksum algorithm %q", h.Parameters[checksumParam])
	}
	return s, nil
}

// WriteStriped writes the snapshot across nFiles files (path.0, path.1, ...)
// to mimic the multi-file I/O used to bypass filesystem striping limits
// (Section 3.4.2).  File k receives particles k, k+nFiles, k+2*nFiles, ...
func WriteStriped(path string, s *Snapshot, nFiles int) error {
	if nFiles <= 1 {
		return Write(path, s)
	}
	for k := 0; k < nFiles; k++ {
		sub := &Snapshot{
			ScaleFac:         s.ScaleFac,
			MomentumScaleFac: s.MomentumScaleFac,
			BoxSize:          s.BoxSize,
			Cosmology:        s.Cosmology,
			Extra:            map[string]string{"stripe": fmt.Sprintf("%d/%d", k, nFiles)},
			Particles:        particle.New(s.Particles.Len()/nFiles + 1),
		}
		for i := k; i < s.Particles.Len(); i += nFiles {
			sub.Particles.AppendFrom(s.Particles, i)
		}
		if err := Write(fmt.Sprintf("%s.%d", path, k), sub); err != nil {
			return err
		}
	}
	return nil
}

// ReadStriped reads a snapshot written by WriteStriped.
func ReadStriped(path string, nFiles int) (*Snapshot, error) {
	if nFiles <= 1 {
		return Read(path)
	}
	var out *Snapshot
	for k := 0; k < nFiles; k++ {
		s, err := Read(fmt.Sprintf("%s.%d", path, k))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = s
			continue
		}
		for i := 0; i < s.Particles.Len(); i++ {
			out.Particles.AppendFrom(s.Particles, i)
		}
	}
	return out, nil
}
