package particle

import (
	"math/rand"

	"twohot/internal/vec"
)

// Clustered returns the standard clustered benchmark snapshot: n unit-mass
// particles in the unit box, one quarter uniform and the rest drawn from six
// Gaussian blobs (sigma 0.05), periodically wrapped.  The root bench_test.go
// harnesses and the equivalence suites share this generator so they measure
// and pin the same workload.
func Clustered(n int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	set := New(n)
	nBlob := 6
	centers := make([]vec.V3, nBlob)
	for i := range centers {
		centers[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := 0; i < n; i++ {
		var p vec.V3
		if i%4 == 0 {
			p = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		} else {
			c := centers[rng.Intn(nBlob)]
			p = vec.V3{
				vec.PeriodicWrap(c[0]+0.05*rng.NormFloat64(), 1),
				vec.PeriodicWrap(c[1]+0.05*rng.NormFloat64(), 1),
				vec.PeriodicWrap(c[2]+0.05*rng.NormFloat64(), 1),
			}
		}
		set.Append(p, vec.V3{}, 1, int64(i))
	}
	return set
}
