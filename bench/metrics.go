package main

// metricDef declares one metric the benchmark prints: the same name, unit and
// direction BENCHMARK.json carries (bench_test.go pins the two against each
// other).  bound is the share of the baseline median an end-to-end metric may
// worsen by before -compare calls it a regression; per-layer metrics have
// none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd lists what a user of the system sees, on every workload.  A "unit
// of service" is one step of a simulation workload (OnStep to OnStep, so a
// checkpoint or analysis pass the step triggers counts against it) and one
// job (submit to completed) of serve.burst.  Each value is the median over
// the run's repeats of the per-repeat figure.
//
// Every bound is 0.25: ten runs at ten seeds on the 2-core shared box this was
// written on spread (interquartile, as a share of the median) 9-13 % on the
// simulation workloads and 20 % on treepm.block's p90 — realization-to-
// realization differences in the work plus minutes-long slow phases of the
// host that no statistic inside a 20 s run can see past — and a bound below
// the benchmark's own spread would only report noise.
var endToEnd = []metricDef{
	{"particle_steps_per_s", "psteps/s", "higher", 0.25},
	{"latency_s_p50", "s", "lower", 0.25},
	{"latency_s_p90", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass.  A layer that is
// not on a workload's path reports 0 there (pm.* on the pure tree workloads,
// comm.* on everything but tree.ranks2, serve.* on the simulation workloads).
var perLayer = []metricDef{
	{"force.err_rms", "ratio", "lower", 0},
	{"ic.generate_s", "s", "lower", 0},
	{"tree.build_scratch_s", "s", "lower", 0},
	{"tree.build_incremental_s", "s", "lower", 0},
	{"tree.build_dirty_s", "s", "lower", 0},
	{"tree.cells", "count", "lower", 0},
	{"tree.reused_cell_frac", "ratio", "higher", 0},
	{"parsort.sortkv_s", "s", "lower", 0},
	{"parsort.adaptive_s", "s", "lower", 0},
	{"parsort.fastpath_frac", "ratio", "higher", 0},
	{"traverse.walk_s", "s", "lower", 0},
	{"traverse.p2p_pairs", "count", "lower", 0},
	{"traverse.cell_interactions", "count", "lower", 0},
	{"traverse.flops", "count", "lower", 0},
	{"traverse.gflops_per_s", "Gflop/s", "higher", 0},
	{"traverse.inherit_ratio", "ratio", "higher", 0},
	{"traverse.pruned_inactive", "count", "higher", 0},
	{"traverse.bounds_reused_cells", "count", "higher", 0},
	{"multipole.eval_ns_per_cell", "ns", "lower", 0},
	{"multipole.flops_per_cell", "count", "lower", 0},
	{"multipole.bytes_per_cell_computed", "B", "lower", 0},
	{"softening.p2p_ns_per_pair", "ns", "lower", 0},
	{"softening.split_ns_per_pair", "ns", "lower", 0},
	{"softening.flops_per_pair", "count", "lower", 0},
	{"softening.bytes_per_pair_computed", "B", "lower", 0},
	{"pm.longrange_s", "s", "lower", 0},
	{"fft.cube64_roundtrip_s", "s", "lower", 0},
	{"step.kickdrift_s", "s", "lower", 0},
	{"step.substeps_per_block", "count", "lower", 0},
	{"step.active_frac_mean", "ratio", "lower", 0},
	{"step.rungs_occupied", "count", "higher", 0},
	{"domain.decompose_s", "s", "lower", 0},
	{"domain.imbalance", "ratio", "lower", 0},
	{"comm.bytes_per_step", "B", "lower", 0},
	{"comm.msgs_per_step", "count", "lower", 0},
	{"comm.wait_s", "s", "lower", 0},
	{"comm.chan_alltoallv_mb_per_s", "MB/s", "higher", 0},
	{"comm.tcp_alltoallv_mb_per_s", "MB/s", "higher", 0},
	{"comm.tcp_pingpong_us", "us", "lower", 0},
	{"sdf.write_mb_per_s", "MB/s", "higher", 0},
	{"sdf.read_mb_per_s", "MB/s", "higher", 0},
	{"sdf.bytes_per_checkpoint", "B", "lower", 0},
	{"analysis.pass_s", "s", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_s_p50", "s", "lower", 0},
	{"serve.suspend_ms_p50", "ms", "lower", 0},
	{"serve.resume_ms_p50", "ms", "lower", 0},
	{"serve.slots_highwater", "count", "higher", 0},
	{"serve.rejected_429", "count", "lower", 0},
	{"serve.dropped_streams", "count", "lower", 0},
	{"scaling.w1_over_wN", "ratio", "higher", 0},
	{"mem.heap_inuse_peak_mb", "MB", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.accounted_frac", "ratio", "higher", 0},
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet renders values for every metric of defs, defaulting to 0 for a
// layer the workload does not exercise.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
