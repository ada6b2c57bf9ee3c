package main

// metricDef declares one metric. BENCHMARK.json carries the same
// names, units, directions and bounds; bench_test.go fails when the two
// disagree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; what the two generic ones count on each workload
// is fixed in the workload table (workloads.go) and in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.15},
	{"p50_ms", "ms", "lower", 0.15},
}

// perLayer are the metrics of a traced run, layer = module name. A
// traced run reports every one; a metric whose layer the workload does
// not reach reads 0 there.
var perLayer = []metricDef{
	// spec: replay of generated requests through the public functions.
	{"spec.decode_us", "us", "lower", 0},
	{"spec.validate_us", "us", "lower", 0},
	{"spec.hash_us", "us", "lower", 0},
	{"spec.bytes", "count", "lower", 0},
	// core, tlm, rtl: direct simulation.
	{"core.compile_us", "us", "lower", 0},
	{"core.run_tl_us", "us", "lower", 0},
	{"core.run_rtl_us", "us", "lower", 0},
	{"core.tl_rtl_speedup", "x", "higher", 0},
	{"tlm.ns_per_cycle", "ns", "lower", 0},
	{"rtl.ns_per_cycle", "ns", "lower", 0},
	{"tlm.allocs_per_run", "count", "lower", 0},
	{"rtl.allocs_per_run", "count", "lower", 0},
	{"tlm.bytes_per_run", "count", "lower", 0},
	{"rtl.bytes_per_run", "count", "lower", 0},
	// sim: the two kernels in isolation.
	{"sim.wheel_ns_per_event", "ns", "lower", 0},
	{"sim.kernel_ns_per_tick_busy", "ns", "lower", 0},
	{"sim.kernel_ns_per_tick_gated", "ns", "lower", 0},
	// sched, farm: admission and dispatch of a no-op job.
	{"sched.submit_dispatch_us", "us", "lower", 0},
	{"sched.submit_allocs", "count", "lower", 0},
	{"farm.pool_submit_us", "us", "lower", 0},
	{"sched.rejected", "count", "lower", 0},
	// store: the disk tier.
	{"store.put_us", "us", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.peek_us", "us", "lower", 0},
	{"store.put_bytes", "count", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	// service: what a worker adds around the simulation.
	{"service.queue_us", "us", "lower", 0},
	{"service.simulate_us", "us", "lower", 0},
	{"service.encode_us", "us", "lower", 0},
	{"service.cold_overhead_x", "x", "lower", 0},
	{"service.http_residual_us", "us", "lower", 0},
	{"service.hit_p50_us", "us", "lower", 0},
	{"service.memory_hit_share", "share", "higher", 0},
	{"service.disk_hit_share", "share", "lower", 0},
	{"service.coalesced_share", "share", "lower", 0},
	{"service.miss_share", "share", "lower", 0},
	{"service.p99_ms", "ms", "lower", 0},
	{"service.sweep_id_us", "us", "lower", 0},
	// shard: what the router adds.
	{"shard.owner_ns", "ns", "lower", 0},
	{"shard.owner8_ns", "ns", "lower", 0},
	{"shard.proxy_hop_us", "us", "lower", 0},
	{"shard.router_hit_p50_us", "us", "lower", 0},
	{"shard.router_hit_share", "share", "higher", 0},
	{"shard.sweep_overhead_x", "x", "lower", 0},
	{"shard.owner_skew", "x", "lower", 0},
	{"shard.steals", "count", "lower", 0},
	{"shard.failovers", "count", "lower", 0},
	{"shard.retries", "count", "lower", 0},
	{"shard.p99_ms", "ms", "lower", 0},
	// sweep, agg: grid expansion and analysis.
	{"sweep.expand_us_per_variant", "us", "lower", 0},
	{"sweep.walk_us_per_variant", "us", "lower", 0},
	{"sweep.warm_variants_per_s", "1/s", "higher", 0},
	{"agg.analyze_us_per_row", "us", "lower", 0},
	{"agg.metrics_from_result_us", "us", "lower", 0},
	{"agg.analyze_ms", "ms", "lower", 0},
	// obs: the exposition a scrape pays for.
	{"obs.write_text_us", "us", "lower", 0},
	{"obs.parse_text_us", "us", "lower", 0},
	{"obs.metrics_bytes", "count", "lower", 0},
	// runtime and the tracer itself.
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.mallocs_per_request", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metric is one reported value: the median of its per-round (or
// per-call) samples, with the quartiles and the count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Samples are the values behind the median, kept when there are few
	// enough (one per round) to be worth reading.
	Samples []float64 `json:"samples,omitempty"`
}

// summarize folds samples into a metric; n is the number of underlying
// operations when it differs from len(samples).
func summarize(unit string, samples []float64, n int) metric {
	q1, q3 := quartiles(samples)
	if n == 0 {
		n = len(samples)
	}
	m := metric{Value: median(samples), Unit: unit, Q1: q1, Q3: q3, N: n}
	if len(samples) <= 2*measuredRounds {
		m.Samples = samples
	}
	return m
}
