package main

// metricDef names one reported metric. The two lists below are the
// benchmark's contract: an untraced run (-trace 0) prints every
// end-to-end metric, a traced run (-trace 1) every per-layer metric,
// on every workload, and BENCHMARK.json lists the same names (checked
// by TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the job service sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s", "s", "lower"},
	{"s_per_cycle", "s", "lower"},
	{"turnaround_s_p50", "s", "lower"},
	{"turnaround_s_p90", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"ang_err_mean_deg", "deg", "lower"},
	{"ang_err_max_deg", "deg", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's per-layer numbers, grouped by the
// repository module they measure. Times and counts are per traced
// cycle job unless the name says otherwise.
var perLayer = []metricDef{
	// workload: dataset synthesis.
	{"workload.build_s", "s", "lower"},
	// fourier: reference padded DFT, sampler and cut cache.
	{"fourier.ref_prep_s", "s", "lower"},
	{"fourier.cut_cache_hit_rate", "ratio", "higher"},
	{"fourier.cut_coeffs", "count", "lower"},
	// core: view prep, shift replay, per-level matching, centre search.
	{"core.level0_s", "s", "lower"},
	{"core.level1_s", "s", "lower"},
	{"core.level2_s", "s", "lower"},
	{"core.level0_distance_evals", "count", "lower"},
	{"core.level1_distance_evals", "count", "lower"},
	{"core.level2_distance_evals", "count", "lower"},
	{"core.center_evals", "count", "lower"},
	{"core.ns_per_distance_eval", "ns", "lower"},
	{"core.prep_s", "s", "lower"},
	{"core.replayed_shifts", "count", "lower"},
	{"core.alloc_bytes_per_view", "bytes", "lower"},
	// reconstruct and fsc.
	{"reconstruct.full_s", "s", "lower"},
	{"reconstruct.halves_fsc_s", "s", "lower"},
	{"reconstruct.halves_s", "s", "lower"},
	{"reconstruct.views_inserted", "count", "lower"},
	{"fsc.compute_s", "s", "lower"},
	{"fsc.res05_best_A", "A", "lower"},
	// cycle: the outer loop.
	{"cycle.cycles", "count", "lower"},
	{"cycle.initial_ref_s", "s", "lower"},
	{"cycle.first_cycle_s", "s", "lower"},
	{"cycle.later_cycle_s_mean", "s", "lower"},
	{"cycle.ang_err_cycle0_deg", "deg", "lower"},
	// serve and volume: admission, HTTP, journal and artifacts.
	{"serve.level_record_bytes_total", "bytes", "lower"},
	{"serve.level_record_bytes_max", "bytes", "lower"},
	{"serve.journal_bytes_per_job", "bytes", "lower"},
	{"serve.journal_append_s", "s", "lower"},
	{"serve.artifact_write_s", "s", "lower"},
	{"serve.artifact_bytes", "bytes", "lower"},
	{"serve.submit_s_p50", "s", "lower"},
	{"serve.read_s_p50", "s", "lower"},
	{"serve.read_s_p90", "s", "lower"},
	{"serve.journal_replay_s", "s", "lower"},
	// Self time per layer (span minus child spans) and the part of the
	// traced job's wall time no layer span covers.
	{"self.workload_s", "s", "lower"},
	{"self.fourier_s", "s", "lower"},
	{"self.core_s", "s", "lower"},
	{"self.reconstruct_s", "s", "lower"},
	{"self.cycle_s", "s", "lower"},
	{"self.serve_s", "s", "lower"},
	{"self.volume_s", "s", "lower"},
	{"self.unaccounted_s", "s", "lower"},
	// Tracing overhead: the traced driver run against the untraced
	// service run of the same job.
	{"trace.job_s_traced", "s", "lower"},
	{"trace.job_s_untraced", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// layers are the span-name prefixes the self-time table groups by, in
// report order; "job" is the root span, whose self time is the
// unaccounted remainder.
var layers = []string{"workload", "fourier", "core", "reconstruct", "cycle", "serve", "volume"}
