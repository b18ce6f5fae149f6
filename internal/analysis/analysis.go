package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"twohot/internal/cosmo"
	"twohot/internal/grid"
	"twohot/internal/halo"
	"twohot/internal/massfunc"
	"twohot/internal/particle"
	"twohot/internal/sdf"
	"twohot/internal/transfer"
	"twohot/internal/vec"
)

// Options selects and parameterizes the built-in analyzers.  BoxSize is
// required; everything else has working defaults.
type Options struct {
	BoxSize float64 // periodic box size [Mpc/h]
	Workers int     // goroutines for the parallel passes (0 = GOMAXPROCS)

	// Which sections the catalog carries.  MassFunction implies the FOF/SO
	// pass even when Halos is false (the catalog then carries the binned
	// function without the per-halo entries).
	Halos         bool
	MassFunction  bool
	PowerSpectrum bool

	// Halo configures the FOF/SO finders; zero fields mean the documented
	// halo.Options defaults, and BoxSize/Workers are inherited from above
	// when unset.
	Halo halo.Options
	// MassBins is the number of logarithmic mass bins (0 = 16).
	MassBins int
	// Mesh is the P(k) CIC deposit grid per side (0 = 64).
	Mesh int
	// MaxHalos caps the per-halo entries recorded in the catalog (0 = all).
	// The mass function is always measured over the full finder output.
	MaxHalos int
}

func (o *Options) defaults() {
	if o.Halo.BoxSize == 0 {
		o.Halo.BoxSize = o.BoxSize
	}
	if o.Halo.Workers == 0 {
		o.Halo.Workers = o.Workers
	}
	if o.MassBins == 0 {
		o.MassBins = 16
	}
	if o.Mesh == 0 {
		o.Mesh = 64
	}
}

// Validate rejects option values that are not expressible requests.
func (o Options) Validate() error {
	if o.BoxSize <= 0 {
		return fmt.Errorf("analysis: box size must be positive")
	}
	if !o.Halos && !o.MassFunction && !o.PowerSpectrum {
		return fmt.Errorf("analysis: no analyzer enabled (want halos, mass function or power spectrum)")
	}
	if o.MassBins < 0 {
		return fmt.Errorf("analysis: mass bins must not be negative")
	}
	if o.Mesh < 0 {
		return fmt.Errorf("analysis: mesh must not be negative")
	}
	if o.MaxHalos < 0 {
		return fmt.Errorf("analysis: max halos must not be negative")
	}
	return o.Halo.Validate()
}

// Theory supplies the analytic curves the measurements are compared against
// in the catalog.  Both fields are optional: without them the catalog
// carries the raw measurements with zero predictions.
type Theory struct {
	// Pred evaluates the mass-function fits at the catalog's redshift.
	Pred *massfunc.Predictor
	// LinearPk is the linear-theory power spectrum at the catalog's
	// redshift [(Mpc/h)^3 vs k in h/Mpc].
	LinearPk func(k float64) float64
}

// NewTheory builds the theory curves of one catalog at redshift z: the
// growth factor D(z) is computed once and shared by both curves.
func NewTheory(par cosmo.Params, spec *transfer.Spectrum, z float64) Theory {
	pred := massfunc.NewPredictor(par, spec, z)
	d := pred.Growth()
	return Theory{Pred: pred, LinearPk: func(k float64) float64 { return spec.P(k) * d * d }}
}

// Meta identifies the simulation state a catalog describes.
type Meta struct {
	Name    string  // configuration name
	Step    int     // completed-step count
	A       float64 // scale factor of the positions
	Trigger Trigger
}

// HaloEntry is one catalog halo.  Member indices are deliberately absent:
// they refer to the transient in-memory particle order, which differs across
// rank layouts while the physical catalog does not.
type HaloEntry struct {
	ID        int     `json:"id"`
	N         int     `json:"n"`
	Mass      float64 `json:"m_fof"`  // FOF mass [1e10 Msun/h]
	M200b     float64 `json:"m200b"`  // SO mass at OverdensityB x mean [1e10 Msun/h]
	R200b     float64 `json:"r200b"`  // SO radius [Mpc/h]
	Center    vec.V3  `json:"center"` // density-peak proxy [Mpc/h]
	CenterOfM vec.V3  `json:"center_of_mass"`
}

// MassFuncBin is one bin of a measured mass function with its analytic
// prediction (0 without a Theory.Pred).
type MassFuncBin struct {
	MLo      float64 `json:"m_lo"` // [1e10 Msun/h]
	MHi      float64 `json:"m_hi"`
	MCenter  float64 `json:"m_center"`
	Count    int     `json:"count"`
	NDensity float64 `json:"dn_dlnm"` // [h^3/Mpc^3]
	Poisson  float64 `json:"poisson"`
	Pred     float64 `json:"pred,omitempty"` // analytic dn/dlnM of the matching fit
}

// MassFunctionResult pairs the two measured mass functions with the fits
// they are calibrated against: FOF masses against the Warren et al. (2006)
// FOF fit, spherical-overdensity masses against the Tinker et al. (2008)
// Delta=200 (mean) fit — the Figure 8 comparison.
type MassFunctionResult struct {
	FOF []MassFuncBin `json:"fof,omitempty"`
	SO  []MassFuncBin `json:"so,omitempty"`
}

// PowerEntry is one k bin of the measured spectrum with the linear-theory
// prediction at the same k (0 without a Theory.LinearPk).
type PowerEntry struct {
	K      float64 `json:"k"` // [h/Mpc]
	P      float64 `json:"p"` // [(Mpc/h)^3]
	Modes  int     `json:"modes"`
	Linear float64 `json:"linear,omitempty"`
}

// Catalog is the JSON-serializable output of one in-situ analysis pass.  Its
// encoding is deterministic: for a given particle order and options the
// bytes are identical across runs, worker counts and checkpoint resumes —
// the property the Tier-2 determinism suite pins.
type Catalog struct {
	Name         string  `json:"name"`
	Step         int     `json:"step"`
	A            float64 `json:"a"`
	Z            float64 `json:"z"`
	Trigger      Trigger `json:"trigger"`
	NumParticles int     `json:"num_particles"`
	BoxSize      float64 `json:"box_size"`
	// NumHalos is the full finder output count (Halos may be capped by
	// Options.MaxHalos).
	NumHalos     int                 `json:"num_halos,omitempty"`
	Halos        []HaloEntry         `json:"halos,omitempty"`
	MassFunction *MassFunctionResult `json:"mass_function,omitempty"`
	Power        []PowerEntry        `json:"power,omitempty"`
}

// Run measures the enabled analyzers over the live particle set and
// assembles the catalog.  The set is read-only to the pass; positions and
// masses are consumed as they are (synchronizing the leapfrog first is the
// caller's policy, see the package contract in doc.go).
//
// The pass works on an ID-canonical view of the set: positions and masses
// are gathered in ascending particle-ID order before any measurement.  The
// in-memory order is a property of the execution layout (the tree solver
// keeps particles key-sorted, the distributed solvers regroup them by rank),
// not of the physical state — canonicalizing makes the catalog a function of
// the state alone, so the same state measured under any layout produces the
// same bytes.
func Run(p *particle.Set, meta Meta, opt Options, th Theory) (*Catalog, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.defaults()
	if p == nil {
		return nil, fmt.Errorf("analysis: no particles")
	}
	pos, mass := canonicalView(p)
	z := 1/meta.A - 1
	cat := &Catalog{
		Name:         meta.Name,
		Step:         meta.Step,
		A:            meta.A,
		Z:            z,
		Trigger:      meta.Trigger,
		NumParticles: p.Len(),
		BoxSize:      opt.BoxSize,
	}

	if opt.Halos || opt.MassFunction {
		halos := halo.FOF(pos, mass, opt.Halo)
		halo.SphericalOverdensity(pos, mass, halos, opt.Halo)
		cat.NumHalos = len(halos)
		if opt.Halos {
			limit := len(halos)
			if opt.MaxHalos > 0 && opt.MaxHalos < limit {
				limit = opt.MaxHalos
			}
			cat.Halos = make([]HaloEntry, limit)
			for i, h := range halos[:limit] {
				cat.Halos[i] = HaloEntry{
					ID: h.ID, N: h.N, Mass: h.Mass,
					M200b: h.M200b, R200b: h.R200b,
					Center: h.Center, CenterOfM: h.CenterOfM,
				}
			}
		}
		if opt.MassFunction {
			cat.MassFunction = measureMassFunction(halos, opt, th)
		}
	}

	if opt.PowerSpectrum {
		ps := grid.MeasureParticlePower(pos, opt.BoxSize, opt.Mesh, grid.PowerSpectrumOptions{
			NumParticles: p.Len(),
			Workers:      opt.Workers,
		})
		cat.Power = make([]PowerEntry, len(ps))
		for i, b := range ps {
			e := PowerEntry{K: b.K, P: b.P, Modes: b.Modes}
			if th.LinearPk != nil {
				e.Linear = th.LinearPk(b.K)
			}
			cat.Power[i] = e
		}
	}
	return cat, nil
}

// canonicalView gathers positions and masses in ascending particle-ID order.
// When the set is already ID-sorted (the common serial case right after IC
// generation) the original slices are returned without copying.
func canonicalView(p *particle.Set) (pos []vec.V3, mass []float64) {
	n := p.Len()
	sorted := true
	for i := 1; i < n; i++ {
		if p.ID[i] < p.ID[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return p.Pos, p.Mass
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return p.ID[perm[i]] < p.ID[perm[j]] })
	pos = make([]vec.V3, n)
	mass = make([]float64, n)
	for i, j := range perm {
		pos[i] = p.Pos[j]
		mass[i] = p.Mass[j]
	}
	return pos, mass
}

// measureMassFunction bins the FOF and SO masses of the finder output and
// attaches the matching fit predictions.  FOF masses carry the Warren et al.
// (2006) discreteness correction m -> m (1 - N^-0.6): small-N FOF groups
// systematically overlink, and the fit the measurement is compared against
// was calibrated with exactly this correction applied.  SO masses need none.
func measureMassFunction(halos []halo.Halo, opt Options, th Theory) *MassFunctionResult {
	var fof, so []float64
	for _, h := range halos {
		if h.Mass > 0 && h.N > 1 {
			fof = append(fof, h.Mass*(1-math.Pow(float64(h.N), -0.6)))
		}
		if h.M200b > 0 {
			so = append(so, h.M200b)
		}
	}
	return &MassFunctionResult{
		FOF: binMasses(fof, opt, th, massfunc.Warren06),
		SO:  binMasses(so, opt, th, massfunc.Tinker08),
	}
}

// binMasses measures one mass function over [min, max*(1+eps)) with the
// catalog's bin count and attaches fit predictions at the bin centers.
func binMasses(masses []float64, opt Options, th Theory, fit massfunc.Fit) []MassFuncBin {
	if len(masses) == 0 {
		return nil
	}
	minM, maxM := masses[0], masses[0]
	for _, m := range masses {
		if m < minM {
			minM = m
		}
		if m > maxM {
			maxM = m
		}
	}
	bins := massfunc.Measure(masses, opt.BoxSize, minM, maxM*1.0001, opt.MassBins)
	out := make([]MassFuncBin, len(bins))
	for i, b := range bins {
		e := MassFuncBin{
			MLo: b.MLo, MHi: b.MHi, MCenter: b.MCenter,
			Count: b.Count, NDensity: b.NDensity, Poisson: b.Poisson,
		}
		if th.Pred != nil {
			e.Pred = th.Pred.DnDlnM(fit, b.MCenter)
		}
		out[i] = e
	}
	return out
}

// EncodeCatalog renders the catalog as indented JSON — the exact bytes
// WriteCatalog persists, exposed so equivalence tests can compare outputs
// without touching the filesystem.
func EncodeCatalog(c *Catalog) ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteCatalog persists the catalog as JSON through the same atomic
// temp-fsync-rename path snapshots use, so a crash mid-write never leaves a
// truncated catalog under the final name.
func WriteCatalog(path string, c *Catalog) error {
	data, err := EncodeCatalog(c)
	if err != nil {
		return err
	}
	return sdf.WriteAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// ReadCatalog loads a catalog written by WriteCatalog.
func ReadCatalog(path string) (*Catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	return &c, nil
}
