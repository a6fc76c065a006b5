package main

// metric is one reported number, as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the server sees, reported by every
// workload's untraced run.
var endToEnd = []metric{
	{"quiet_p50_ms", "ms", "lower"},
	{"quiet_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is what the traced run reports for every workload; a layer a
// workload never crosses reads 0. Times ending in _us are mean self
// time per request, so a workload's layers add up; see trace.go.
var perLayer = []metric{
	{"query.http.decode_us", "us", "lower"},
	{"query.http.encode_us", "us", "lower"},
	{"query.http.response_bytes", "bytes", "lower"},
	{"query.engine.hit_us", "us", "lower"},
	{"query.engine.hit_allocs", "count", "lower"},
	{"query.engine.invalidate_us", "us", "lower"},
	{"query.ops.alpha_cut_us", "us", "lower"},
	{"query.ops.peaks_us", "us", "lower"},
	{"query.ops.component_of_us", "us", "lower"},
	{"query.ops.mcc_us", "us", "lower"},
	{"query.ops.spectrum_us", "us", "lower"},
	{"query.ops.resolve_allocs", "count", "lower"},
	{"query.route.forward_us", "us", "lower"},
	{"query.route.relay_bytes", "bytes", "lower"},
	{"query.route.breaker_open", "count", "lower"},
	{"measures.kcore_us", "us", "lower"},
	{"measures.clustering_us", "us", "lower"},
	{"measures.ktruss_us", "us", "lower"},
	{"measures.betweenness_sampled_us", "us", "lower"},
	{"measures.closeness_us", "us", "lower"},
	{"core.tree_us", "us", "lower"},
	{"core.supertree_us", "us", "lower"},
	{"core.supertree_allocs", "count", "lower"},
	{"core.supernodes", "count", "lower"},
	{"terrain.layout_us", "us", "lower"},
	{"contour.spectrum_us", "us", "lower"},
	{"query.codec.encode_us", "us", "lower"},
	{"query.codec.snapshot_bytes", "bytes", "lower"},
	{"query.store.add_us", "us", "lower"},
	{"query.store.get_us", "us", "lower"},
	{"query.store.open_hit_ratio", "ratio", "higher"},
	{"query.codec.decode_us", "us", "lower"},
	{"query.codec.decode_allocs", "count", "lower"},
	{"graph.arena_verify_us", "us", "lower"},
	{"core.tree_decode_us", "us", "lower"},
	{"query.store.index_scan_ms", "ms", "lower"},
	{"datasets.generate_ms", "ms", "lower"},
	{"transport_us", "us", "lower"},
}
