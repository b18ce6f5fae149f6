package tree

import (
	"fmt"
	"testing"

	"twohot/internal/particle"
	"twohot/internal/vec"
)

// BenchmarkBuild measures one whole build — keys, sort, subtrees and moments
// — of a clustered load through a reused BuildScratch, the way the stepping
// pipeline calls Build once per step.  Each iteration restores the unsorted
// input first (Build reorders it in place); the copy is part of the time.
//
//	go test -run '^$' -bench Build ./internal/tree
func BenchmarkBuild(b *testing.B) {
	const n = 1 << 15
	set := particle.Clustered(n, 1)
	box := vec.CubeBox(vec.V3{}, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pos := make([]vec.V3, n)
			mass := make([]float64, n)
			opt := Options{Order: 4, LeafSize: 16, Workers: workers, Scratch: &BuildScratch{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(pos, set.Pos)
				copy(mass, set.Mass)
				if _, err := Build(pos, mass, box, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
