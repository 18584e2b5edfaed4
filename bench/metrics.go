package main

// metricDef names one metric the benchmark prints. The same names, units
// and directions are listed in BENCHMARK.json (bench_test.go keeps the two
// in step) and explained in README.md.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the runtime sees, per workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"pairs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, from the traced repetitions,
// mr.Metrics and the ladder. A metric that does not apply to a workload
// (proc.* in process, engine.* across processes, hamming.* on other
// families) reads 0 there.
var perLayer = []metricDef{
	{"mr.traced_wall_s", "s", "lower"},
	{"mr.self_s", "s", "lower"},
	{"mr.cpu_s", "s", "lower"},
	{"mr.alloc_mb", "MB", "lower"},
	{"mr.gc_cycles", "count", "lower"},
	{"mr.comm_pairs", "count", "lower"},
	{"mr.r_observed", "ratio", "lower"},
	{"mr.q_observed", "count", "lower"},

	{"engine.map_phase_s", "s", "lower"},
	{"engine.profile_phase_s", "s", "lower"},
	{"engine.reduce_phase_s", "s", "lower"},
	{"engine.map_task_busy_s", "s", "lower"},
	{"engine.reduce_task_busy_s", "s", "lower"},
	{"engine.reduce_task_max_s", "s", "lower"},
	{"engine.makespan_ratio", "ratio", "lower"},
	{"engine.task_retries", "count", "lower"},

	{"shuffle.seal_busy_s", "s", "lower"},
	{"shuffle.fence_busy_s", "s", "lower"},
	{"shuffle.compact_busy_s", "s", "lower"},
	{"shuffle.reduce_merge_busy_s", "s", "lower"},
	{"shuffle.seals", "count", "lower"},
	{"shuffle.compactions", "count", "lower"},
	{"shuffle.runs_merged", "count", "lower"},
	{"shuffle.spill_overlap_s", "s", "higher"},
	{"shuffle.finish_drain_s", "s", "lower"},
	{"shuffle.peak_resident_pairs", "count", "lower"},
	{"shuffle.partition_skew", "ratio", "lower"},
	{"shuffle.spill_bytes_per_pair", "B/pair", "lower"},
	{"shuffle.disk_read_bytes_per_pair", "B/pair", "lower"},
	{"shuffle.swap_bytes_per_pair", "B/pair", "lower"},
	{"shuffle.ingest_pairs_s", "1/s", "higher"},
	{"shuffle.merge_values_s", "1/s", "higher"},
	{"shuffle.stats_s", "s", "lower"},

	{"runfile.encode_mb_s", "MB/s", "higher"},
	{"runfile.decode_mb_s", "MB/s", "higher"},
	{"runfile.write_mb_s", "MB/s", "higher"},
	{"runfile.read_mmap_mb_s", "MB/s", "higher"},
	{"runfile.read_pread_mb_s", "MB/s", "higher"},
	{"runfile.index_load_s", "s", "lower"},
	{"runfile.bytes_per_pair", "B/pair", "lower"},
	{"runfile.index_share", "ratio", "lower"},
	{"runfile.write_vs_host", "ratio", "higher"},
	{"runfile.read_vs_host", "ratio", "higher"},

	{"proc.spawn_s", "s", "lower"},
	{"proc.map_task_busy_s", "s", "lower"},
	{"proc.reduce_task_busy_s", "s", "lower"},
	{"proc.idle_share", "ratio", "lower"},
	{"proc.spool_bytes_per_pair", "B/pair", "lower"},
	{"proc.disk_read_bytes_per_pair", "B/pair", "lower"},
	{"proc.peak_resident_pairs", "count", "lower"},
	{"proc.worker_peak_rss_mb", "MB", "lower"},
	{"proc.retries", "count", "lower"},
	{"proc.vs_inproc", "ratio", "lower"},

	{"hamming.map_pairs_s", "1/s", "higher"},
	{"hamming.reduce_values_s", "1/s", "higher"},

	{"obs.overhead_ratio", "ratio", "lower"},
	{"obs.dropped_events", "count", "lower"},

	{"core.r_bound", "ratio", "higher"},
	{"core.r_gap", "ratio", "lower"},

	{"host.seq_write_mb_s", "MB/s", "higher"},
	{"host.seq_read_mb_s", "MB/s", "higher"},
	{"host.memcpy_mb_s", "MB/s", "higher"},
}
