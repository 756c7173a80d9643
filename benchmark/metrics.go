package main

// metricSpec names one metric the way BENCHMARK.json does; a test checks
// the two lists against that file.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are measured with tracing off. error_rate is the issue's
// seventh: it must be 0, so it travels as failed/attempted in the result
// line instead of as a bounded metric.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"guest_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"trials_per_s", "1/s", "higher", 0.25},
	{"packets_per_s", "1/s", "higher", 0.25},
	{"verdict_latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayerMetrics come from the layer probes and the traced rep. Layer =
// module name. They carry no bound: they explain a move, they do not gate.
var perLayerMetrics = []metricSpec{
	{Name: "proc.dispatch_minstr_per_s", Unit: "Minstr/s", Better: "higher"},
	{Name: "proc.fork_us", Unit: "us", Better: "lower"},

	{Name: "cache.access_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.access_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.flush_asid_us", Unit: "us", Better: "lower"},
	{Name: "cache.new_us", Unit: "us", Better: "lower"},

	{Name: "mem.load_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.store_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.store_cow_us", Unit: "us", Better: "lower"},
	{Name: "mem.fork_us_per_kpage", Unit: "us", Better: "lower"},
	{Name: "mem.dirty_scan_us_per_kpage", Unit: "us", Better: "lower"},
	{Name: "mem.alloc_kb_per_cow", Unit: "KB", Better: "lower"},

	{Name: "hashx.page_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "compare.run_dirty_us", Unit: "us", Better: "lower"},
	{Name: "compare.run_identity_us", Unit: "us", Better: "lower"},
	{Name: "compare.identity_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "compare.hash_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "machine.new_us", Unit: "us", Better: "lower"},
	{Name: "machine.new_alloc_kb", Unit: "KB", Better: "lower"},

	{Name: "sim.baseline_minstr_per_s", Unit: "Minstr/s", Better: "higher"},

	{Name: "oskernel.syscalls_per_s", Unit: "1/s", Better: "higher"},

	{Name: "core.protect_host_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.export_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.segments_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.cow_copies", Unit: "count", Better: "lower"},
	{Name: "core.bytes_hashed", Unit: "count", Better: "lower"},

	{Name: "stats.mode_share.baseline", Unit: "ratio", Better: "lower"},
	{Name: "stats.mode_share.parallaft", Unit: "ratio", Better: "lower"},
	{Name: "stats.mode_share.raft", Unit: "ratio", Better: "lower"},
	{Name: "stats.workload_s.444.namd", Unit: "s", Better: "lower"},
	{Name: "stats.workload_s.429.mcf", Unit: "s", Better: "lower"},
	{Name: "stats.workload_s.470.lbm", Unit: "s", Better: "lower"},
	{Name: "stats.workload_s.403.gcc", Unit: "s", Better: "lower"},
	{Name: "stats.workload_s.458.sjeng", Unit: "s", Better: "lower"},

	{Name: "campaign.speedup_2w", Unit: "ratio", Better: "higher"},
	{Name: "campaign.job_overhead_us", Unit: "us", Better: "lower"},

	{Name: "inject.trial_ms", Unit: "ms", Better: "lower"},
	{Name: "inject.profile_run_share", Unit: "ratio", Better: "lower"},
	{Name: "inject.prefix_share", Unit: "ratio", Better: "lower"},

	{Name: "packet.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "packet.decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "packet.bytes_per_packet", Unit: "count", Better: "lower"},

	{Name: "pagestore.put_new_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "pagestore.put_dup_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "pagestore.get_ns", Unit: "ns", Better: "lower"},
	{Name: "pagestore.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pagestore.serialize_mbps", Unit: "MB/s", Better: "higher"},

	{Name: "checkd.check_us_per_packet", Unit: "us", Better: "lower"},
	{Name: "checkd.fixed_us_per_packet", Unit: "us", Better: "lower"},
	{Name: "checkd.fixed_share", Unit: "ratio", Better: "lower"},
	{Name: "checkd.frame_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "checkd.checkover_packets_per_s", Unit: "1/s", Better: "higher"},
	{Name: "checkd.retries", Unit: "count", Better: "lower"},

	{Name: "checkfarm.upload_mb", Unit: "MB", Better: "lower"},
	{Name: "checkfarm.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "checkfarm.redispatches", Unit: "count", Better: "lower"},
	{Name: "checkfarm.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "checkfarm.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "checkfarm.latency_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.on_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},

	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
