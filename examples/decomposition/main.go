// Command decomposition reproduces the content of Figure 4: it decomposes a
// clustered particle distribution over many processor domains with the
// space-filling-curve sort and renders one face of the volume as a PPM image,
// cycling colors by domain.  It also prints the load balance achieved, then
// runs the same set through the distributed tree backend of the public
// ForceSolver interface — the full message-passing pipeline (decomposition,
// branch exchange, remote cell fetching) behind one method call.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	twohot "twohot"
	"twohot/internal/comm"
	"twohot/internal/domain"
	"twohot/internal/keys"
	"twohot/internal/particle"
	"twohot/internal/vec"
)

func main() {
	nRanks := flag.Int("ranks", 2, "number of processor domains (in-process ranks)")
	n := flag.Int("n", 60000, "number of particles")
	curveName := flag.String("curve", "hilbert", "space-filling curve: morton or hilbert")
	out := flag.String("o", "decomposition.ppm", "output PPM image")
	flag.Parse()

	curve := keys.Hilbert
	if *curveName == "morton" {
		curve = keys.Morton
	}

	// Clustered distribution similar to an evolved cosmological volume.
	rng := rand.New(rand.NewSource(12))
	set := particle.New(*n)
	nBlob := 12
	centers := make([]vec.V3, nBlob)
	for i := range centers {
		centers[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := 0; i < *n; i++ {
		var p vec.V3
		if i%3 == 0 {
			p = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		} else {
			c := centers[rng.Intn(nBlob)]
			p = vec.V3{
				vec.PeriodicWrap(c[0]+0.06*rng.NormFloat64(), 1),
				vec.PeriodicWrap(c[1]+0.06*rng.NormFloat64(), 1),
				vec.PeriodicWrap(c[2]+0.06*rng.NormFloat64(), 1),
			}
		}
		set.Append(p, vec.V3{}, 1, int64(i))
	}
	box := vec.CubeBox(vec.V3{}, 1)

	// Decompose: each rank starts with a slice of the particles.
	world := comm.NewWorld(*nRanks)
	perRank := make([]*particle.Set, *nRanks)
	for r := range perRank {
		perRank[r] = set.Chunk(r, *nRanks)
	}
	var decomp *domain.Decomposition
	counts := make([]int, *nRanks)
	if err := world.Run(func(r *comm.Rank) error {
		d, err := domain.Decompose(r, perRank[r.ID], box, domain.Options{Curve: curve})
		if err != nil {
			return err
		}
		if r.ID == 0 {
			decomp = d
		}
		counts[r.ID] = perRank[r.ID].Len()
		return nil
	}); err != nil {
		panic(err)
	}

	fmt.Printf("decomposed %d particles over %d domains along the %s curve\n", *n, *nRanks, curve)
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	fmt.Printf("domain sizes: min=%d max=%d (imbalance %.2f)\n", min, max,
		float64(max)*float64(*nRanks)/float64(*n))

	// Render one face (particles with z < 0.1), coloring by owner.
	const img = 512
	pixels := make([]int, img*img)
	for i := range pixels {
		pixels[i] = -1
	}
	palette := [][3]byte{
		{0, 0, 0}, {230, 25, 75}, {60, 180, 75}, {0, 130, 200}, {70, 240, 240},
		{0, 0, 128}, {170, 110, 40}, {145, 30, 180}, {255, 255, 255},
		{255, 225, 25}, {245, 130, 48}, {240, 50, 230}, {210, 245, 60},
		{250, 190, 212}, {0, 128, 128}, {220, 190, 255},
	}
	for i := 0; i < set.Len(); i++ {
		p := set.Pos[i]
		if p[2] > 0.1 {
			continue
		}
		owner := decomp.OwnerOfPosition(p)
		px := int(p[0] * img)
		py := int(p[1] * img)
		if px >= 0 && px < img && py >= 0 && py < img {
			pixels[py*img+px] = owner
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "P6\n%d %d\n255\n", img, img)
	buf := make([]byte, 0, img*img*3)
	for _, v := range pixels {
		var c [3]byte
		if v >= 0 {
			c = palette[v%len(palette)]
		} else {
			c = [3]byte{20, 20, 20}
		}
		buf = append(buf, c[0], c[1], c[2])
	}
	f.Write(buf)
	fmt.Printf("wrote %s (one face of the volume, colored by processor domain)\n", *out)

	// The same decomposition machinery, driven end to end: the force solver a
	// Ranks > 1 Config describes runs the full distributed pipeline
	// (work-weighted domain cut, branch exchange, remote cell fetching) in
	// one call and regroups the set by owning rank in place.
	cfg := twohot.DefaultConfig()
	cfg.Ranks = *nRanks
	cfg.BoxSize = 1
	cfg.ErrTol = 1e-4
	cfg.Kernel = "plummer"
	cfg.Softening = 0.002
	cfg.LatticeOrder = 0
	solver, err := twohot.NewForceSolver(cfg)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	res, err := solver.ActiveForces(set, nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("distributed force solve over %d ranks: %d particles in %.0f ms (%d P2P + %d cell interactions)\n",
		*nRanks, set.Len(), time.Since(start).Seconds()*1e3,
		res.Counters.P2P, res.Counters.CellInteractions())
}
