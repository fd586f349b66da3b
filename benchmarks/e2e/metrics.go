package main

import "fmt"

// decl declares one metric. The lists below are what the program can
// print; BENCHMARK.json must name the same metrics with the same
// units, which the test and benchmarks/check.sh verify.
type decl struct{ name, unit string }

// endToEndDecl: what a user of the system sees. Every workload reports
// all of them; benchmarks/README.md says what each means on each.
var endToEndDecl = []decl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"ingest_points_per_s", "points/s"},
	{"write_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_points_per_s", "points/s"},
	{"point_p50_ms", "ms"},
	{"disk_bytes_per_point", "B/point"},
	{"write_amp", "ratio"},
}

// perLayerDecl: single layers, from the traced run. A layer a workload
// does not exercise reports 0.
var perLayerDecl = []decl{
	{"client.ops", "count"},
	{"client.failed_ops", "count"},
	{"client.self_us_per_op", "us"},
	{"client.agg_stats_p50_ms", "ms"},
	{"client.fanout_p50_ms", "ms"},
	{"client.fanout_p99_ms", "ms"},
	{"client.historic_p50_ms", "ms"},
	{"client.sweep_p50_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.query_p95_ms", "ms"},
	{"client.query_p99_ms", "ms"},
	{"client.point_p99_ms", "ms"},
	{"client.lateness_p99_ms", "ms"},
	{"client.achieved_rate_ratio", "ratio"},
	{"client.unverifiable", "count"},

	{"rpc.self_us_per_op", "us"},
	{"rpc.wire_bytes_per_point", "B/point"},
	{"rpc.overloaded", "count"},

	{"httpgw.self_us_per_req", "us"},
	{"httpgw.parse_ns_per_point", "ns/point"},
	{"httpgw.parse_allocs_per_point", "1/point"},
	{"httpgw.rejected_429", "count"},

	{"ingestq.enqueued", "count"},
	{"ingestq.rejected", "count"},
	{"ingestq.depth_max", "count"},

	{"shard.index_ns_per_call", "ns"},
	{"shard.points_imbalance", "ratio"},
	{"shard.fanout_us_per_series", "us"},

	{"engine.insert_ns_per_point", "ns/point"},
	{"engine.insert_lock_wait_ns_per_point", "ns/point"},
	{"engine.insert_unexplained_ns_per_point", "ns/point"},
	{"engine.query_ns_per_point", "ns/point"},
	{"engine.agg_ns_per_point", "ns/point"},
	{"engine.sort_share_query", "ratio"},
	{"engine.lock_waits", "count"},
	{"engine.lock_wait_avg_us", "us"},
	{"engine.lock_wait_p99_us", "us"},
	{"engine.queries_blocked", "count"},
	{"engine.flushes", "count"},
	{"engine.flush_ms_avg", "ms"},
	{"engine.flush_sort_ms_avg", "ms"},
	{"engine.flush_encode_ms_avg", "ms"},
	{"engine.flush_write_ms_avg", "ms"},
	{"engine.flush_unexplained_ms_avg", "ms"},
	{"engine.unseq_ratio", "ratio"},
	{"engine.sorts_skipped", "count"},
	{"engine.flat_sorts", "count"},
	{"engine.iface_sorts", "count"},
	{"engine.flat_sort_ms", "ms"},
	{"engine.iface_sort_ms", "ms"},
	{"engine.compaction_passes", "count"},
	{"engine.compaction_bytes_read", "B"},
	{"engine.files_end", "count"},
	{"engine.blocks_decoded", "count"},
	{"engine.blocks_decoded_agg_stats", "count"},
	{"engine.blocks_skipped", "count"},
	{"engine.blocks_from_stats", "count"},
	{"engine.skip_ratio", "ratio"},
	{"engine.bytes_read", "B"},
	{"engine.read_amp", "ratio"},
	{"engine.reopen_s", "s"},
	{"engine.recovered_wal_batches", "count"},

	{"wal.append_ns_per_point", "ns/point"},
	{"wal.bytes_per_point", "B/point"},
	{"wal.syncs", "count"},
	{"wal.commits_per_sync", "ratio"},

	{"memtable.write_ns_per_point", "ns/point"},
	{"memtable.allocs_per_point", "1/point"},

	{"tvlist.sort_flat_ns_per_point", "ns/point"},
	{"tvlist.sort_iface_ns_per_point", "ns/point"},
	{"tvlist.snapshot_ns_per_point", "ns/point"},

	{"core.sortflat_ns_per_point", "ns/point"},
	{"core.backward_ns_per_point", "ns/point"},
	{"core.block_size_median", "points"},
	{"core.search_iters_avg", "count"},
	{"core.overlap_avg", "points"},

	{"adaptive.observe_ns_per_point", "ns/point"},

	{"encoding.ts2diff_enc_ns_per_point", "ns/point"},
	{"encoding.gorilla_enc_ns_per_point", "ns/point"},
	{"encoding.ts2diff_dec_ns_per_point", "ns/point"},
	{"encoding.gorilla_dec_ns_per_point", "ns/point"},
	{"encoding.bytes_per_point", "B/point"},

	{"tsfile.encode_ns_per_point", "ns/point"},
	{"tsfile.write_ns_per_point", "ns/point"},
	{"tsfile.open_us", "us"},
	{"tsfile.read_block_ns_per_point", "ns/point"},
	{"tsfile.bytes_per_point", "B/point"},

	{"index.select_us_p50", "us"},
	{"index.series_per_select", "count"},
	{"index.postings_entries", "count"},

	{"query.agg_ns_per_point", "ns/point"},
	{"query.merge_windows_us", "us"},

	{"tsql.parse_us", "us"},

	{"device.writes", "count"},
	{"device.write_bytes_wal", "B"},
	{"device.write_bytes_flush", "B"},
	{"device.write_bytes_compact", "B"},
	{"device.syncs", "count"},
	{"device.sync_ms_total", "ms"},
	{"device.renames", "count"},
	{"device.dir_syncs", "count"},

	{"process.allocs_per_point", "1/point"},
	{"process.alloc_bytes_per_point", "B/point"},
	{"process.heap_peak_mb", "MB"},
	{"process.gc_pause_ms_total", "ms"},
	{"process.cpu_ns_per_point", "ns/point"},

	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// metricSet holds the values of one declared list. Setting a name the
// list does not declare is a bug and panics on the first run.
type metricSet struct {
	decls  []decl
	values map[string]float64
	notes  map[string]string // printed beside the value: the sample count behind a latency
}

func newMetricSet(decls []decl) metricSet {
	m := metricSet{decls: decls, values: make(map[string]float64, len(decls)), notes: map[string]string{}}
	for _, d := range decls {
		m.values[d.name] = 0
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	m.values[name] = v
}

// setLatency sets name to the pct-th percentile of s, or the highest
// lower one its sample count supports, and notes both beside it.
func (m metricSet) setLatency(name string, s samples, pct float64) {
	v, supported := s.tail(pct)
	m.set(name, v)
	m.notes[name] = fmt.Sprintf(" n=%d p%g", s.n(), supported)
}

func (m metricSet) get(name string) float64 {
	v, ok := m.values[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	return v
}
