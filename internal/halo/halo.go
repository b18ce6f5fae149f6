// Package halo identifies dark-matter halos in particle snapshots: the
// friends-of-friends (FOF) group finder used since the original HOT analysis
// pipeline (vfind), and spherical-overdensity (SO) masses (M200 with respect
// to the mean density) of the kind used by the Tinker et al. (2008)
// calibration that Figure 8 compares against.
package halo

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"twohot/internal/par"
	"twohot/internal/vec"
)

// Halo is one identified group.
type Halo struct {
	ID        int
	N         int     // member particle count (FOF)
	Mass      float64 // FOF mass
	M200b     float64 // spherical-overdensity mass at 200x mean density
	R200b     float64
	Center    vec.V3 // center (position of the minimum-potential proxy: densest neighborhood)
	CenterOfM vec.V3
	Members   []int // particle indices (only kept when Options.KeepMembers)
}

// Options configures the finders.
//
// Zero-value semantics: for LinkingLength, MinMembers and OverdensityB the
// zero value means "use the default" (0.2, 20 and 200 respectively), not an
// explicit zero — a plain struct field cannot distinguish the two.  An
// explicit zero would be meaningless anyway: a zero linking length links
// nothing and a zero overdensity threshold is unreachable, so no information
// is lost.  The one real request the sentinel could shadow — "no membership
// threshold" — is expressed as MinMembers = 1 (every FOF group has at least
// one member, so 1 disables the cut exactly).  Negative values are never
// defaults and never valid; Validate rejects them, and the finders apply it.
type Options struct {
	BoxSize       float64 // periodic box size (0 = non-periodic)
	LinkingLength float64 // FOF linking length in units of the mean interparticle separation (0 = default 0.2)
	MinMembers    int     // minimum FOF membership (0 = default 20; 1 disables the cut)
	KeepMembers   bool
	OverdensityB  float64 // SO overdensity with respect to the mean density (0 = default 200)
	// Workers bounds the goroutines of the parallel finders (currently the
	// spherical-overdensity pass, which is independent per halo).  0 means
	// GOMAXPROCS.  Results are bit-identical for every worker count.
	Workers int
}

// Validate rejects option values that are not expressible requests: negative
// or NaN lengths and thresholds, negative worker counts.  The zero value (and
// any mix of zero fields) is always valid — zeros mean defaults, as
// documented on the struct.
func (o Options) Validate() error {
	if o.BoxSize < 0 || math.IsNaN(o.BoxSize) || math.IsInf(o.BoxSize, 0) {
		return fmt.Errorf("halo: box size %g must be finite and >= 0 (0 = non-periodic)", o.BoxSize)
	}
	if o.LinkingLength < 0 || math.IsNaN(o.LinkingLength) || math.IsInf(o.LinkingLength, 0) {
		return fmt.Errorf("halo: linking length %g must be finite and >= 0 (0 = default 0.2)", o.LinkingLength)
	}
	if o.MinMembers < 0 {
		return fmt.Errorf("halo: min members %d must be >= 0 (0 = default 20, 1 = no cut)", o.MinMembers)
	}
	if o.OverdensityB < 0 || math.IsNaN(o.OverdensityB) || math.IsInf(o.OverdensityB, 0) {
		return fmt.Errorf("halo: overdensity %g must be finite and >= 0 (0 = default 200)", o.OverdensityB)
	}
	if o.Workers < 0 {
		return fmt.Errorf("halo: workers %d must be >= 0 (0 = GOMAXPROCS)", o.Workers)
	}
	return nil
}

func (o *Options) defaults(n int) {
	if o.LinkingLength == 0 {
		o.LinkingLength = 0.2
	}
	if o.MinMembers == 0 {
		o.MinMembers = 20
	}
	if o.OverdensityB == 0 {
		o.OverdensityB = 200
	}
	// Out-of-range values degrade to the defaults as well, so the finders
	// (which cannot return an error) stay total; callers that want the
	// failure surfaced run Validate first — the simulation's configuration
	// path does.
	if o.LinkingLength < 0 || math.IsNaN(o.LinkingLength) {
		o.LinkingLength = 0.2
	}
	if o.MinMembers < 0 {
		o.MinMembers = 20
	}
	if o.OverdensityB < 0 || math.IsNaN(o.OverdensityB) {
		o.OverdensityB = 200
	}
	o.Workers = par.Workers(o.Workers)
}

// unionFind is a standard disjoint-set structure.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// FOF runs the friends-of-friends finder and returns halos above the
// membership threshold, sorted by decreasing mass.  mass may be nil for equal
// mass particles (mass 1 each).
//
// The catalog is deterministic: groups are enumerated in order of their
// lowest member index and the final sort breaks mass ties (common with
// equal-mass particles) by member count and then by that first-member index,
// so two runs over the same particle order produce byte-identical catalogs —
// the invariant the in-situ analysis determinism suite pins across worker
// counts and checkpoint-resume boundaries.
func FOF(pos []vec.V3, mass []float64, opt Options) []Halo {
	n := len(pos)
	opt.defaults(n)
	if n == 0 {
		return nil
	}
	// Mean interparticle separation.
	var l float64
	if opt.BoxSize > 0 {
		l = opt.BoxSize
	} else {
		l = vec.BoundingBox(pos).MaxSide()
	}
	sep := l / math.Cbrt(float64(n))
	link := opt.LinkingLength * sep

	// Cell-linked neighbor grid with cell size >= link.
	nc := int(l / link)
	if nc < 1 {
		nc = 1
	}
	if nc > 512 {
		nc = 512
	}
	cellSize := l / float64(nc)
	_ = cellSize
	cellOf := func(p vec.V3) (int, int, int) {
		f := float64(nc) / l
		i, j, k := int(p[0]*f), int(p[1]*f), int(p[2]*f)
		clamp := func(v int) int {
			if v < 0 {
				return 0
			}
			if v >= nc {
				return nc - 1
			}
			return v
		}
		return clamp(i), clamp(j), clamp(k)
	}
	heads := make([]int32, nc*nc*nc)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int32, n)
	for i, p := range pos {
		ci, cj, ck := cellOf(p)
		idx := (ci*nc+cj)*nc + ck
		next[i] = heads[idx]
		heads[idx] = int32(i)
	}

	uf := newUnionFind(n)
	link2 := link * link
	for i := 0; i < n; i++ {
		ci, cj, ck := cellOf(pos[i])
		for di := -1; di <= 1; di++ {
			for dj := -1; dj <= 1; dj++ {
				for dk := -1; dk <= 1; dk++ {
					ni, nj, nk := ci+di, cj+dj, ck+dk
					if opt.BoxSize > 0 {
						ni, nj, nk = (ni+nc)%nc, (nj+nc)%nc, (nk+nc)%nc
					} else if ni < 0 || nj < 0 || nk < 0 || ni >= nc || nj >= nc || nk >= nc {
						continue
					}
					for j := heads[(ni*nc+nj)*nc+nk]; j >= 0; j = next[j] {
						if int(j) <= i {
							continue
						}
						d := pos[int(j)].Sub(pos[i])
						if opt.BoxSize > 0 {
							d = vec.MinImageV(d, opt.BoxSize)
						}
						if d.Norm2() <= link2 {
							uf.union(int32(i), j)
						}
					}
				}
			}
		}
	}

	// Collect groups in first-seen (lowest member index) order — a map
	// iteration here would make the catalog order run-to-run random.
	slot := map[int32]int{}
	var groups [][]int
	for i := 0; i < n; i++ {
		r := uf.find(int32(i))
		gi, ok := slot[r]
		if !ok {
			gi = len(groups)
			slot[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	var halos []Halo
	for _, members := range groups {
		if len(members) < opt.MinMembers {
			continue
		}
		// ID temporarily holds the lowest member index (members ascend by
		// construction): the deterministic tie-break of the sort below.
		// Final IDs are assigned after sorting.
		h := Halo{ID: members[0], N: len(members)}
		ref := pos[members[0]]
		var com vec.V3
		for _, m := range members {
			mm := 1.0
			if mass != nil {
				mm = mass[m]
			}
			h.Mass += mm
			d := pos[m].Sub(ref)
			if opt.BoxSize > 0 {
				d = vec.MinImageV(d, opt.BoxSize)
			}
			com = com.Add(d.Scale(mm))
		}
		com = ref.Add(com.Scale(1 / h.Mass))
		if opt.BoxSize > 0 {
			com = vec.WrapV(com, opt.BoxSize)
		}
		h.CenterOfM = com
		h.Center = densestMember(pos, members, opt.BoxSize)
		if opt.KeepMembers {
			h.Members = append([]int(nil), members...)
		}
		halos = append(halos, h)
	}
	sort.Slice(halos, func(i, j int) bool {
		a, b := &halos[i], &halos[j]
		if a.Mass != b.Mass {
			return a.Mass > b.Mass
		}
		if a.N != b.N {
			return a.N > b.N
		}
		return a.ID < b.ID // lowest member index: unique per group
	})
	for i := range halos {
		halos[i].ID = i
	}
	return halos
}

// densestMember returns the position of the member with the most neighbors
// within a small radius — a cheap proxy for the density peak used as the SO
// center.
func densestMember(pos []vec.V3, members []int, boxSize float64) vec.V3 {
	if len(members) == 0 {
		return vec.V3{}
	}
	if len(members) > 400 {
		// Subsample for speed; the densest region dominates anyway.
		members = members[:400]
	}
	// Use the distance to the 7th nearest member as an inverse density
	// estimate.
	best := members[0]
	bestD := math.Inf(1)
	for _, m := range members {
		var dists []float64
		for _, o := range members {
			if o == m {
				continue
			}
			d := pos[o].Sub(pos[m])
			if boxSize > 0 {
				d = vec.MinImageV(d, boxSize)
			}
			dists = append(dists, d.Norm2())
		}
		sort.Float64s(dists)
		k := 7
		if k >= len(dists) {
			k = len(dists) - 1
		}
		if k < 0 {
			continue
		}
		if dists[k] < bestD {
			bestD = dists[k]
			best = m
		}
	}
	return pos[best]
}

// SphericalOverdensity fills in M200b/R200b for each halo by growing spheres
// about the halo centers over the full particle set.  Each halo's sphere is
// independent of every other, so the pass runs on Options.Workers goroutines;
// a halo's mass depends only on its own candidate gather and sort, so the
// results are bit-identical for every worker count.
func SphericalOverdensity(pos []vec.V3, mass []float64, halos []Halo, opt Options) {
	n := len(pos)
	opt.defaults(n)
	if n == 0 || len(halos) == 0 {
		return
	}
	var l float64
	if opt.BoxSize > 0 {
		l = opt.BoxSize
	} else {
		l = vec.BoundingBox(pos).MaxSide()
	}
	totalMass := 0.0
	for i := 0; i < n; i++ {
		if mass != nil {
			totalMass += mass[i]
		} else {
			totalMass++
		}
	}
	rhoMean := totalMass / (l * l * l)
	target := opt.OverdensityB * rhoMean

	// A coarse cell grid to find candidate particles near each center.
	nc := 32
	if opt.BoxSize == 0 {
		nc = 16
	}
	heads := make([]int32, nc*nc*nc)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int32, n)
	cellOf := func(p vec.V3) (int, int, int) {
		f := float64(nc) / l
		clamp := func(v int) int {
			if v < 0 {
				return 0
			}
			if v >= nc {
				return nc - 1
			}
			return v
		}
		return clamp(int(p[0] * f)), clamp(int(p[1] * f)), clamp(int(p[2] * f))
	}
	for i, p := range pos {
		ci, cj, ck := cellOf(p)
		idx := (ci*nc+cj)*nc + ck
		next[i] = heads[idx]
		heads[idx] = int32(i)
	}
	cellSide := l / float64(nc)

	// The pass's dynamic pool: halo masses span decades, so equal chunks of
	// the mass-sorted halos would hand one worker all the big spheres.
	workers := min(opt.Workers, len(halos))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hi := range work {
				soForHalo(&halos[hi], pos, mass, opt, l, target, heads, next, cellOf, nc, cellSide)
			}
		}()
	}
	for hi := range halos {
		work <- hi
	}
	close(work)
	wg.Wait()
}

// soForHalo grows the spherical-overdensity sphere of one halo: gather the
// candidate particles within an expanding set of cells, sort by radius, and
// walk outward until the mean enclosed density drops below the target.
func soForHalo(h *Halo, pos []vec.V3, mass []float64, opt Options, l, target float64,
	heads, next []int32, cellOf func(vec.V3) (int, int, int), nc int, cellSide float64) {
	maxR := 3.0 * math.Cbrt(h.Mass/(4.0/3.0*math.Pi*target))
	reach := int(maxR/cellSide) + 1
	ci, cj, ck := cellOf(h.Center)
	type pr struct{ r2, m float64 }
	var cand []pr
	for di := -reach; di <= reach; di++ {
		for dj := -reach; dj <= reach; dj++ {
			for dk := -reach; dk <= reach; dk++ {
				ni, nj, nk := ci+di, cj+dj, ck+dk
				if opt.BoxSize > 0 {
					ni, nj, nk = ((ni%nc)+nc)%nc, ((nj%nc)+nc)%nc, ((nk%nc)+nc)%nc
				} else if ni < 0 || nj < 0 || nk < 0 || ni >= nc || nj >= nc || nk >= nc {
					continue
				}
				for j := heads[(ni*nc+nj)*nc+nk]; j >= 0; j = next[j] {
					d := pos[j].Sub(h.Center)
					if opt.BoxSize > 0 {
						d = vec.MinImageV(d, opt.BoxSize)
					}
					r2 := d.Norm2()
					if r2 > maxR*maxR {
						continue
					}
					mm := 1.0
					if mass != nil {
						mm = mass[j]
					}
					cand = append(cand, pr{r2, mm})
				}
			}
		}
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a].r2 < cand[b].r2 })
	enclosed := 0.0
	r200 := 0.0
	m200 := 0.0
	for _, c := range cand {
		enclosed += c.m
		r := math.Sqrt(c.r2)
		if r <= 0 {
			continue
		}
		vol := 4.0 / 3.0 * math.Pi * r * r * r
		if enclosed/vol >= target {
			r200 = r
			m200 = enclosed
		}
	}
	h.R200b = r200
	h.M200b = m200
}
