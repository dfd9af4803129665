package main

// metricDef names one metric of the benchmark. The lists below are the
// names BENCHMARK.json declares and later issues refer to;
// TestNamesMatchManifest keeps code and manifest equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression (per-layer
	// metrics have none).
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the bounded metrics, reported by every workload. Only
// counts and set-up time are here: on the shared sizing host a neighbour's
// memory traffic slows pointer-chasing code by up to 2x for minutes at a
// time (punct_sat: 16 -> 31 us CPU per tuple while an integer kernel slows
// by 8%), so no wall-clock or CPU-time reading of the pipeline repeats
// within any bound the acceptance contract allows (at most 25%). Those
// readings are liveTimed below.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_tuple", "count", lower, 0.15},
	{"alloc_bytes_per_tuple", "B", lower, 0.15},
}

// liveTimed are the live pipeline's timed readings, medians over timed
// rounds like the end-to-end metrics. BENCHMARK.json lists them per layer
// (no bound the driver enforces); -compare still judges them against the
// 10% the issue asked for and says "unresolved" when the host was too
// noisy to tell. Throughput is the drain rate of a closed-loop workload
// and the delivered rate of the open-loop one (below the offered rate
// only when a backlog builds).
var liveTimed = []metricDef{
	{"live.throughput_tuples_per_s", "tuples/s", higher, 0.10},
	{"live.cpu_us_per_tuple", "us", lower, 0.10},
}

// perLayer are single-layer readings, the layer being the package name
// before the dot ("live" is the whole live pipeline). They come from the
// timed rounds, the traced round (taps), the direct drive (exact
// counters) and the drills; they carry no bound.
var perLayer = []metricDef{
	liveTimed[0],
	liveTimed[1],

	{"exec.overhead_us_per_tuple", "us", lower, 0},
	{"exec.overhead_allocs_per_tuple", "count", lower, 0},
	{"exec.emit_ns_per_result", "ns", lower, 0},
	{"exec.emit_share", "ratio", lower, 0},
	{"exec.batches_in", "count", lower, 0},
	{"exec.batch_fill_mean", "count", higher, 0},
	{"exec.src_lag_p50_ms", "ms", lower, 0},
	{"exec.src_lag_p99_ms", "ms", lower, 0},
	{"exec.drain_ms", "ms", lower, 0},
	{"exec.latency_p50_ms", "ms", lower, 0},
	{"exec.latency_p90_ms", "ms", lower, 0},
	{"exec.latency_p99_ms", "ms", lower, 0},
	{"exec.latency_max_ms", "ms", lower, 0},
	{"exec.latency_samples", "count", higher, 0},
	{"exec.late_share", "ratio", lower, 0},
	{"exec.hop_ns_per_item_b256", "ns", lower, 0},
	{"exec.hop_ns_per_item_b1", "ns", lower, 0},

	{"core.busy_share", "ratio", lower, 0},
	{"core.self_us_per_tuple", "us", lower, 0},
	{"core.direct_us_per_tuple", "us", lower, 0},
	{"core.direct_allocs_per_tuple", "count", lower, 0},
	{"core.tuple_us_per_tuple", "us", lower, 0},
	{"core.punct_us_per_punct", "us", lower, 0},
	{"core.peak_state_tuples", "count", lower, 0},
	{"core.results", "count", higher, 0},
	{"core.examined", "count", lower, 0},
	{"core.purged", "count", higher, 0},
	{"core.purge_scanned", "count", lower, 0},
	{"core.purge_yield", "ratio", higher, 0},
	{"core.dropped_on_fly", "count", higher, 0},
	{"core.index_scanned", "count", lower, 0},
	{"core.index_scan_per_punct", "count", lower, 0},
	{"core.puncts_out", "count", higher, 0},

	{"joinbase.probe_ns_per_result", "ns", lower, 0},
	{"joinbase.disk_passes", "count", lower, 0},
	{"joinbase.disk_chunks", "count", lower, 0},
	{"joinbase.disk_examined", "count", lower, 0},
	{"joinbase.disk_joins", "count", lower, 0},
	{"joinbase.disk_join_share", "ratio", lower, 0},

	{"store.insert_ns", "ns", lower, 0},
	{"store.probe_ns_g26", "ns", lower, 0},
	{"store.probe_ns_g1", "ns", lower, 0},
	{"store.probe_cached_ns", "ns", lower, 0},
	{"store.take_key_group_ns", "ns", lower, 0},
	{"store.spill_bucket_us", "us", lower, 0},
	{"store.scan_us_per_kib", "us", lower, 0},
	{"store.relocations", "count", lower, 0},
	{"store.spilled_tuples", "count", lower, 0},
	{"store.bytes_written", "B", lower, 0},
	{"store.bytes_read", "B", lower, 0},
	{"store.read_ops", "count", lower, 0},

	{"punct.set_add_ns", "ns", lower, 0},
	{"punct.first_match_ns", "ns", lower, 0},
	{"punct.purge_plan_ns", "ns", lower, 0},

	{"stream.join_ns", "ns", lower, 0},
	{"stream.join_allocs", "count", lower, 0},

	{"op.groupby_us_per_tuple", "us", lower, 0},
	{"op.groupby_busy_share", "ratio", lower, 0},
	{"op.early_emitted_share", "ratio", higher, 0},

	{"value.hash_ns", "ns", lower, 0},

	{"parallel.direct_us_per_tuple_s2", "us", lower, 0},

	{"gen.synthetic_s", "s", lower, 0},
	{"gen.auction_s", "s", lower, 0},
	{"benchmark.reference_s", "s", lower, 0},
	{"benchmark.trace_overhead_pct", "%", lower, 0},
	{"benchmark.calib_ms", "ms", lower, 0},
	{"benchmark.failed_share", "ratio", lower, 0},
}
