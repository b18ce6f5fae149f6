package twohot

// This file regenerates every table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the index and for paper-vs-measured numbers).
// Each benchmark prints the same rows/series the paper reports; absolute
// hardware numbers differ from the authors' testbeds, but the shapes (who
// wins, by what factor, where crossovers fall) are the reproduction target.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The heavier figure harnesses (7 and 8) run reduced problem sizes by default
// so that the full suite completes in minutes on a laptop.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"twohot/internal/comm"
	"twohot/internal/core"
	"twohot/internal/multipole"
	"twohot/internal/particle"
	"twohot/internal/softening"
	"twohot/internal/traverse"
	"twohot/internal/tree"
	"twohot/internal/vec"
)

// effectiveGflops converts an interaction-count record and a wall-clock time
// into the paper's performance metric.
func effectiveGflops(c traverse.Counters, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Flops()) / elapsed.Seconds() / 1e9
}

// ---------------------------------------------------------------------------
// Table 3: gravitational micro-kernel performance (Gflop/s, 28 flops per
// monopole interaction), scalar vs m x n blocked, float32.
// ---------------------------------------------------------------------------

func microKernelData(m, n int) (*multipole.Source32, *multipole.Sink32) {
	rng := rand.New(rand.NewSource(1))
	src := multipole.NewSource32(m)
	for j := 0; j < m; j++ {
		src.Append(rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()+0.5)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	zs := make([]float32, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i], zs[i] = rng.Float32(), rng.Float32(), rng.Float32()
	}
	return src, multipole.NewSink32(xs, ys, zs)
}

func reportGflops(b *testing.B, interactionsPerOp int64) {
	b.ReportMetric(float64(interactionsPerOp*multipole.FlopsPerMonopole)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
	b.ReportMetric(float64(interactionsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

func BenchmarkTable3MicrokernelBlocked(b *testing.B) {
	const m, n = 256, 64
	src, snk := microKernelData(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multipole.BlockedMonopole32(src, snk, 1e-6)
	}
	reportGflops(b, int64(m*n))
}

func BenchmarkTable3MicrokernelScalar(b *testing.B) {
	const m, n = 256, 64
	src, snk := microKernelData(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multipole.ScalarMonopole32(src, snk, 1e-6)
	}
	reportGflops(b, int64(m*n))
}

func BenchmarkTable3MicrokernelAllCores(b *testing.B) {
	const m, n = 256, 64
	workers := runtime.GOMAXPROCS(0)
	srcs := make([]*multipole.Source32, workers)
	snks := make([]*multipole.Sink32, workers)
	for w := range srcs {
		srcs[w], snks[w] = microKernelData(m, n)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src, snk := microKernelData(m, n)
		for pb.Next() {
			multipole.BlockedMonopole32(src, snk, 1e-6)
		}
	})
	reportGflops(b, int64(m*n))
}

// ---------------------------------------------------------------------------
// Section 3.3 ablation: m x n blocking vs per-source scalar updates at
// several block shapes.
// ---------------------------------------------------------------------------

func BenchmarkBlockingAblation(b *testing.B) {
	for _, shape := range []struct{ m, n int }{{16, 16}, {64, 32}, {256, 64}, {1024, 64}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", shape.m, shape.n), func(b *testing.B) {
			src, snk := microKernelData(shape.m, shape.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				multipole.BlockedMonopole32(src, snk, 1e-6)
			}
			reportGflops(b, int64(shape.m*shape.n))
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 6: multipole error vs distance for p = 0..8, with a float32 direct
// sum for comparison, on 512 random particles in a unit cube.
// ---------------------------------------------------------------------------

func BenchmarkFigure6MultipoleError(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n = 512
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{rng.Float64(), rng.Float64(), rng.Float64()}
		mass[i] = 1.0 / n
	}
	center := vec.V3{0.5, 0.5, 0.5}
	orders := []int{0, 2, 4, 6, 8}
	exps := map[int]*multipole.Expansion{}
	for _, p := range orders {
		e := multipole.NewExpansion(p, center)
		e.AddParticles(pos, mass)
		e.FinalizeNorms()
		exps[p] = e
	}
	direct := func(x vec.V3) vec.V3 {
		var a vec.V3
		for i := range pos {
			d := pos[i].Sub(x)
			r := d.Norm()
			a = a.Add(d.Scale(mass[i] / (r * r * r)))
		}
		return a
	}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		if iter > 0 {
			continue // the table only needs to be produced once
		}
		fmt.Println("\nFigure 6: relative acceleration error vs distance (512 particles, unit cube)")
		fmt.Printf("%6s %12s %12s %12s %12s %12s %12s\n", "r", "p=0", "p=2", "p=4", "p=6", "p=8", "float32")
		for _, r := range []float64{0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
			x := center.Add(vec.V3{r, 0, 0})
			ref := direct(x)
			row := fmt.Sprintf("%6.2f", r)
			for _, p := range orders {
				res := exps[p].Evaluate(x)
				row += fmt.Sprintf(" %12.3e", res.Acc.Sub(ref).Norm()/ref.Norm())
			}
			a32, _ := core.Direct32Forces(pos, mass, x)
			row += fmt.Sprintf(" %12.3e", a32.Sub(ref).Norm()/ref.Norm())
			fmt.Println(row)
		}
		// Histogram of errors at r=4 over random directions (the lower panel).
		fmt.Println("Figure 6 (lower): error distribution at r=4 (100 random directions), log10 median")
		for _, p := range orders {
			med := medianErrAtR(exps[p], pos, mass, center, 4.0, rng)
			fmt.Printf("  p=%d: median rel err %.3e\n", p, med)
		}
	}
}

func medianErrAtR(e *multipole.Expansion, pos []vec.V3, mass []float64, center vec.V3, r float64, rng *rand.Rand) float64 {
	var errs []float64
	for k := 0; k < 100; k++ {
		d := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		d = d.Scale(r / d.Norm())
		x := center.Add(d)
		var ref vec.V3
		for i := range pos {
			dd := pos[i].Sub(x)
			rr := dd.Norm()
			ref = ref.Add(dd.Scale(mass[i] / (rr * rr * rr)))
		}
		res := e.Evaluate(x)
		errs = append(errs, res.Acc.Sub(ref).Norm()/ref.Norm())
	}
	// median
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}

// ---------------------------------------------------------------------------
// Section 2.2.1 / Conclusion ablation: background subtraction reduces the
// interaction count at fixed tolerance on an early-time configuration.
// ---------------------------------------------------------------------------

func BenchmarkAblationBackgroundSubtraction(b *testing.B) {
	nSide := 24
	if testing.Short() {
		nSide = 16
	}
	rng := rand.New(rand.NewSource(7))
	var pos []vec.V3
	var mass []float64
	h := 1.0 / float64(nSide)
	for i := 0; i < nSide; i++ {
		for j := 0; j < nSide; j++ {
			for k := 0; k < nSide; k++ {
				pos = append(pos, vec.V3{
					vec.PeriodicWrap((float64(i)+0.5)*h+0.02*h*rng.NormFloat64(), 1),
					vec.PeriodicWrap((float64(j)+0.5)*h+0.02*h*rng.NormFloat64(), 1),
					vec.PeriodicWrap((float64(k)+0.5)*h+0.02*h*rng.NormFloat64(), 1),
				})
				mass = append(mass, 1)
			}
		}
	}
	base := core.TreeConfig{Order: 4, ErrTol: 1e-5, Periodic: true, BoxSize: 1, WS: 1}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		if iter > 0 {
			continue
		}
		with := base
		with.BackgroundSubtraction = true
		without := base
		rBG, _ := core.NewTreeSolver(with).ActiveForces(&particle.Set{Pos: pos, Mass: mass}, nil, nil)
		rNo, _ := core.NewTreeSolver(without).ActiveForces(&particle.Set{Pos: pos, Mass: mass}, nil, nil)
		tBG := rBG.Counters.P2P + rBG.Counters.CellInteractions()
		tNo := rNo.Counters.P2P + rNo.Counters.CellInteractions()
		fmt.Printf("\nBackground-subtraction ablation (N=%d^3 early-time box, errtol=1e-5):\n", nSide)
		fmt.Printf("  with subtraction:    %d interactions (%d flops/particle)\n", tBG, rBG.Counters.Flops()/int64(len(pos)))
		fmt.Printf("  without subtraction: %d interactions (%d flops/particle)\n", tNo, rNo.Counters.Flops()/int64(len(pos)))
		fmt.Printf("  reduction factor:    %.2f (paper reports ~3x at production tolerance, 5x at early times)\n",
			float64(tNo)/float64(tBG))
		b.ReportMetric(float64(tNo)/float64(tBG), "reduction_factor")
	}
}

// ---------------------------------------------------------------------------
// Table 1 & Figure 5: whole-step performance and strong scaling over ranks.
// ---------------------------------------------------------------------------

func clusteredParticleSet(n int, seed int64) *particle.Set {
	return particle.Clustered(n, seed)
}

func BenchmarkTable1MachinePerformance(b *testing.B) {
	// The historical table cannot be reproduced on one host; instead report
	// the effective Gflop/s of a full force computation here, the number a
	// new row of Table 1 would record for this machine.
	n := 30000
	if testing.Short() {
		n = 10000
	}
	set := clusteredParticleSet(n, 3)
	cfg := core.TreeConfig{Order: 4, ErrTol: 1e-5, Kernel: softening.Plummer, Eps: 0.002,
		Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1}
	solver := core.NewTreeSolver(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.ActiveForces(set, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gf := effectiveGflops(res.Counters, res.Timings.TreeTraversal)
			fmt.Printf("\nTable 1 (this machine): N=%d, %d cores, force step %.3fs, %.2f effective Gflop/s\n",
				n, runtime.GOMAXPROCS(0), res.Timings.Total.Seconds(), gf)
			b.ReportMetric(gf, "Gflop/s")
			b.ReportMetric(float64(n)/res.Timings.Total.Seconds(), "particles/s")
		}
	}
}

func BenchmarkFigure5StrongScaling(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 8000
	}
	maxRanks := runtime.GOMAXPROCS(0)
	for ranks := 1; ranks <= maxRanks; ranks *= 2 {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var baseline time.Duration
			for i := 0; i < b.N; i++ {
				set := clusteredParticleSet(n, 3)
				cfg := core.DistributedConfig{
					Tree: core.TreeConfig{Order: 4, ErrTol: 1e-4, Kernel: softening.Plummer, Eps: 0.002,
						Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1},
					NRanks:         ranks,
					BranchExchange: "ring",
				}
				res, err := core.DistributedStep(set, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					gf := effectiveGflops(res.Counters, res.Timings.Total)
					if ranks == 1 {
						baseline = res.Timings.Total
					}
					_ = baseline
					fmt.Printf("Figure 5: ranks=%d  N=%d  step=%.3fs  %.2f Gflop/s  imbalance=%.2f\n",
						ranks, n, res.Timings.Total.Seconds(), gf, res.Imbalance)
					b.ReportMetric(gf, "Gflop/s")
					b.ReportMetric(res.Imbalance, "imbalance")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2: breakdown of the computation stages of one distributed timestep,
// with interaction counts by order and flops/particle.
// ---------------------------------------------------------------------------

func BenchmarkTable2StageBreakdown(b *testing.B) {
	n := 30000
	if testing.Short() {
		n = 10000
	}
	for i := 0; i < b.N; i++ {
		set := clusteredParticleSet(n, 5)
		cfg := core.DistributedConfig{
			Tree: core.TreeConfig{Order: 4, ErrTol: 1e-5, Kernel: softening.Plummer, Eps: 0.002,
				Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1},
			NRanks:         runtime.GOMAXPROCS(0),
			BranchExchange: "ring",
			UseWorkWeights: true,
		}
		res, err := core.DistributedStep(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := res.Counters
			fmt.Printf("\nTable 2: stage breakdown of one timestep (N=%d, %d ranks)\n", n, res.NRanks)
			fmt.Printf("  %-38s %10.1f ms\n", "Domain Decomposition", res.Timings.DomainDecomposition.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Tree Build", res.Timings.TreeBuild.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Tree Traversal", res.Timings.TreeTraversal.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Data Communication During Traversal", res.Timings.Communication.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Force Evaluation", res.Timings.ForceEvaluation.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Load Imbalance", res.Timings.LoadImbalance.Seconds()*1e3)
			fmt.Printf("  %-38s %10.1f ms\n", "Total", res.Timings.Total.Seconds()*1e3)
			var hex, quad, mono int64
			for q, cnt := range c.CellByOrder {
				switch {
				case q >= 3:
					hex += cnt
				case q >= 1:
					quad += cnt
				default:
					mono += cnt
				}
			}
			fmt.Printf("  interactions: %.3g hexadecapole, %.3g quadrupole, %.3g monopole (+%.3g p-p)\n",
				float64(hex), float64(quad), float64(mono), float64(c.P2P))
			fmt.Printf("  flops/particle: %d\n", c.Flops()/int64(n))
			b.ReportMetric(float64(c.Flops()/int64(n)), "flops/particle")
		}
	}
}

// ---------------------------------------------------------------------------
// Section 3.1: Alltoall implementation comparison.
// ---------------------------------------------------------------------------

func BenchmarkAlltoallVariants(b *testing.B) {
	payload := make([]byte, 16*1024)
	for _, tc := range []struct {
		name string
		algo comm.AlltoallAlgorithm
	}{
		{"direct", comm.AlltoallDirect},
		{"pairwise", comm.AlltoallPairwise},
		{"hierarchical", comm.AlltoallHierarchical},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ranks := 8
			w := comm.NewWorld(ranks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := w.Run(func(r *comm.Rank) error {
					send := make([][]byte, ranks)
					for d := range send {
						send[d] = payload
					}
					_, err := r.AlltoallvBytes(send, tc.algo)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(ranks * ranks * len(payload)))
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 7: power-spectrum ratios between runs with different code settings,
// including the TreePM (GADGET-2 style) baseline.
// ---------------------------------------------------------------------------

func BenchmarkFigure7PowerSpectra(b *testing.B) {
	// Sized so the full sweep (nine complete simulations) finishes in about a
	// minute; increase for production-quality curves.
	nGrid := 16
	steps := 8
	runOne := func(mutate func(*Config)) []float64 {
		cfg := DefaultConfig()
		cfg.NGrid = nGrid
		cfg.BoxSize = 150
		cfg.ZInit = 19
		cfg.ZFinal = 1
		cfg.NSteps = steps
		cfg.ErrTol = 1e-5
		cfg.WS = 1
		cfg.LatticeOrder = 0
		cfg.PMGrid = 2 * nGrid
		cfg.Analysis.PowerSpectrum = true // the catalog's P(k) alone, on a 2*nGrid mesh
		if mutate != nil {
			mutate(&cfg)
		}
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		cat, err := sim.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, len(cat.Power))
		for i, p := range cat.Power {
			out[i] = p.P
		}
		return out
	}
	for iter := 0; iter < b.N; iter++ {
		if iter > 0 {
			continue
		}
		ref := runOne(func(c *Config) { c.ErrTol = 1e-6; c.NSteps *= 2 }) // reference: tight tolerance, dt/2
		variants := []struct {
			name string
			mut  func(*Config)
		}{
			{"errtol=1e-5 (standard)", nil},
			{"errtol=1e-4", func(c *Config) { c.ErrTol = 1e-4 }},
			{"no 2LPTIC", func(c *Config) { c.Use2LPT = false }},
			{"no DEC", func(c *Config) { c.UseDEC = false }},
			{"1.4x smoothing", func(c *Config) { c.SofteningFrac = 1.4 / 20 }},
			{"spline kernel", func(c *Config) { c.Kernel = "spline" }},
			{"TreePM (GADGET2-like)", func(c *Config) { c.Solver = SolverTreePM }},
			{"TreePM PMGRID=2x", func(c *Config) { c.Solver = SolverTreePM; c.PMGrid = 4 * nGrid }},
		}
		fmt.Printf("\nFigure 7: P(k)/P_ref(k) at z=1 (N=%d^3, L=150 Mpc/h)\n", nGrid)
		for _, v := range variants {
			p := runOne(v.mut)
			row := fmt.Sprintf("  %-24s", v.name)
			for i := 0; i < len(ref) && i < 8; i++ {
				if ref[i] > 0 {
					row += fmt.Sprintf(" %7.4f", p[i]/ref[i])
				}
			}
			fmt.Println(row)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 8: mass function over Tinker08 at two box sizes.
// ---------------------------------------------------------------------------

func BenchmarkFigure8MassFunction(b *testing.B) {
	// Small-volume analogue sized for the benchmark suite.
	nGrid := 16
	steps := 10
	for iter := 0; iter < b.N; iter++ {
		if iter > 0 {
			continue
		}
		fmt.Println("\nFigure 8: SO mass function / Tinker08 (small-volume analogue)")
		for _, box := range []float64{64, 128} {
			cfg := DefaultConfig()
			cfg.NGrid = nGrid
			cfg.BoxSize = box
			cfg.ZInit = 24
			cfg.ZFinal = 0
			cfg.NSteps = steps
			cfg.ErrTol = 1e-4
			cfg.WS = 1
			cfg.LatticeOrder = 0
			cfg.Analysis = AnalysisConfig{MassFunction: true, MinMembers: 20, MassBins: 6}
			sim, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
			cat, err := sim.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			so := cat.MassFunction.SO
			fmt.Printf("  L=%g Mpc/h: %d halo mass bins\n", box, len(so))
			for _, bin := range so {
				if bin.Pred > 0 {
					fmt.Printf("    M200b=%.3e Msun/h  N/Tinker08=%.2f\n", bin.MCenter*1e10, bin.NDensity/bin.Pred)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Section 2.4: cost and accuracy of the periodic boundary treatment.
// ---------------------------------------------------------------------------

func BenchmarkPeriodicCost(b *testing.B) {
	set := clusteredParticleSet(8000, 11)
	for _, tc := range []struct {
		name string
		cfg  core.TreeConfig
	}{
		{"open", core.TreeConfig{Order: 4, ErrTol: 1e-5}},
		{"periodic-ws1", core.TreeConfig{Order: 4, ErrTol: 1e-5, Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 1}},
		{"periodic-ws2+lattice", core.TreeConfig{Order: 4, ErrTol: 1e-5, Periodic: true, BoxSize: 1, BackgroundSubtraction: true, WS: 2, LatticeOrder: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			solver := core.NewTreeSolver(tc.cfg)
			for i := 0; i < b.N; i++ {
				if _, err := solver.ActiveForces(set, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Tree construction: the parallel build pipeline (parallel keying, record
// sort, concurrent subtree arenas) against the serial reference.  The
// equivalence suite in internal/tree proves both produce bit-identical
// trees; this benchmark tracks the speedup.
// ---------------------------------------------------------------------------

func BenchmarkTreeBuild(b *testing.B) {
	sizes := []int{65536, 262144}
	if testing.Short() {
		sizes = []int{65536}
	}
	box := vec.CubeBox(vec.V3{}, 1)
	for _, n := range sizes {
		set := clusteredParticleSet(n, 21)
		workerCounts := []int{1}
		if g := runtime.GOMAXPROCS(0); g > 1 {
			workerCounts = append(workerCounts, g)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, w), func(b *testing.B) {
				pos := make([]vec.V3, n)
				mass := make([]float64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Build reorders in place; restore outside the timer so
					// the serial memcpy does not dilute the speedup number.
					b.StopTimer()
					copy(pos, set.Pos)
					copy(mass, set.Mass)
					b.StartTimer()
					if _, err := tree.Build(pos, mass, box, tree.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticles/s")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Tree traversal: the list-inheriting path (hierarchical interaction-list
// reuse + batched SoA kernels) against the legacy per-group gather it
// replaced.  The equivalence suite in internal/traverse proves the two are
// bit-identical; this benchmark tracks the single-core speedup, the
// replica-walk reduction and allocations/op.
// ---------------------------------------------------------------------------

func traversalBenchWalker(b *testing.B, n int, periodic bool, ws int, bg bool) *traverse.Walker {
	b.Helper()
	set := clusteredParticleSet(n, 13)
	total := 0.0
	for _, m := range set.Mass {
		total += m
	}
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	copy(pos, set.Pos)
	copy(mass, set.Mass)
	box := vec.CubeBox(vec.V3{}, 1)
	rhoBar := 0.0
	if bg {
		rhoBar = total
	}
	tr, err := tree.Build(pos, mass, box, tree.Options{Order: 4, LeafSize: 16, RhoBar: rhoBar})
	if err != nil {
		b.Fatal(err)
	}
	cfg := traverse.Config{
		MAC: traverse.MACAbsoluteError, AccTol: 1e-5 * total / (0.5 * 0.5),
		Kernel: softening.Plummer, Eps: 0.002,
		Periodic: periodic, BoxSize: 1, WS: ws,
	}
	return traverse.NewWalker(tr, cfg)
}

func BenchmarkTraversal(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 8000
	}
	for _, tc := range []struct {
		name     string
		periodic bool
		ws       int
		bg       bool
	}{
		{"open", false, 0, false},
		{"periodic-ws1", true, 1, true},
		{"periodic-ws2", true, 2, true},
	} {
		w := traversalBenchWalker(b, n, tc.periodic, tc.ws, tc.bg)
		// The legacy per-group gather is a test-only oracle since PR 4; its
		// timing baseline lives in internal/traverse's
		// BenchmarkLegacyVsInherit, next to the bit-equivalence suite.
		b.Run(tc.name+"/inherit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.ForcesForAll(1)
			}
			b.ReportMetric(float64(w.LastStats.ReplicaWalks), "replica-walks")
			b.ReportMetric(float64(w.LastStats.InheritedItems), "inherited-items")
		})
	}
}

// BenchmarkTreeTraversal provides the plain per-force-solve cost on a
// clustered snapshot (the number every other benchmark builds on).
func BenchmarkTreeTraversal(b *testing.B) {
	for _, n := range []int{10000, 30000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			set := clusteredParticleSet(n, 13)
			solver := core.NewTreeSolver(core.TreeConfig{Order: 4, ErrTol: 1e-5,
				Kernel: softening.Plummer, Eps: 0.002})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := solver.ActiveForces(set, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
			b.ReportMetric(float64(n), "particles")
		})
	}
}

// Guard against accidental unused imports when benchmarks are trimmed.
var _ = traverse.MACBarnesHut
