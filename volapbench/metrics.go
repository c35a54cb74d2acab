package main

// metricSpec is one metric of the benchmark's contract. BENCHMARK.json
// lists the same names, units and directions; the self-test checks that
// the two agree.
type metricSpec struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run and gated by BENCHMARK.json.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ingest_items_per_s", unit: "1/s", better: "higher"},
	{name: "insert_p50_ms", unit: "ms", better: "lower"},
	{name: "groupby_p50_ms", unit: "ms", better: "lower"},
	{name: "mem_bytes_per_item", unit: "B", better: "lower"},
}

// endToEndRecordOnly are end-to-end metrics the record line carries but
// the summary does not. On a shared 2-CPU host the sub-millisecond range
// and replica query medians, the query rate and every p99 moved by 20-35%
// (quartile spread over ten runs) with the host's load, more than any
// bound the benchmark may set; the error rate is zero on a healthy run
// (failures count in the summary's failed field instead).
var endToEndRecordOnly = []metricSpec{
	{name: "query_p50_ms", unit: "ms", better: "lower"},
	{name: "replica_query_p50_ms", unit: "ms", better: "lower"},
	{name: "queries_per_s", unit: "1/s", better: "higher"},
	{name: "insert_p99_ms", unit: "ms", better: "lower"},
	{name: "query_p99_ms", unit: "ms", better: "lower"},
	{name: "replica_query_p99_ms", unit: "ms", better: "lower"},
	{name: "groupby_p99_ms", unit: "ms", better: "lower"},
	{name: "error_rate", unit: "ratio", better: "lower"},
}

// perLayer are the traced run's metrics. Each names the end-to-end metric
// and workload it should move.
var perLayer = []metricSpec{
	{"client.insert_batch_ms", "ms", "lower", "insert_p50_ms on ingest"},
	{"client.query_ms", "ms", "lower", "query_p50_ms on dashboard"},
	{"trace.overhead_pct", "%", "lower", "none: traced root-span median against the untraced median"},
	{"netmsg.server_rtt_us", "us", "lower", "floor of every latency, all workloads"},
	{"netmsg.worker_rtt_us", "us", "lower", "floor of every latency, all workloads"},
	{"image.route_insert_us_per_item", "us", "lower", "ingest_items_per_s and insert_p50_ms on ingest; none on dashboard"},
	{"image.shard_groups_per_batch", "count", "lower", "ingest_items_per_s and insert_p50_ms on ingest; none on dashboard"},
	{"image.route_query_us", "us", "lower", "query_p50_ms on dashboard"},
	{"image.shards_per_query", "count", "lower", "query_p50_ms on dashboard"},
	{"server.query_self_us", "us", "lower", "query_p50_ms on dashboard"},
	{"server.workers_per_query", "count", "lower", "query_p50_ms on dashboard"},
	{"server.insert_self_us", "us", "lower", "insert_p50_ms on ingest"},
	{"worker.query_rpc_us", "us", "lower", "query_p50_ms on dashboard and mixed"},
	{"worker.groupby_rpc_us", "us", "lower", "groupby_p50_ms on dashboard and mixed"},
	{"worker.replica_query_rpc_us", "us", "lower", "replica_query_p50_ms on dashboard and mixed"},
	{"worker.query_busy_us", "us", "lower", "query_p50_ms; its rise from dashboard to mixed is lock wait plus pending scan"},
	{"worker.insert_busy_us", "us", "lower", "insert_p50_ms on ingest"},
	{"worker.shards_searched_per_query", "count", "lower", "query_p50_ms on dashboard"},
	{"core.query_us", "us", "lower", "query_p50_ms on dashboard"},
	{"core.nodes_visited_per_query", "count", "lower", "query_p50_ms on dashboard"},
	{"core.covered_nodes_per_query", "count", "higher", "query_p50_ms on dashboard"},
	{"core.items_scanned_per_query", "count", "lower", "query_p50_ms on dashboard"},
	{"core.bulk_insert_us_per_item", "us", "lower", "ingest_items_per_s on ingest"},
	{"core.mem_bytes_per_item", "B", "lower", "mem_bytes_per_item, all workloads"},
	{"rollup.groupby_us", "us", "lower", "groupby_p50_ms on dashboard"},
	{"rollup.cells_per_groupby", "count", "lower", "groupby_p50_ms on dashboard"},
	{"rollup.add_us_per_item", "us", "lower", "ingest_items_per_s on ingest"},
	{"durable.append_us_per_batch", "us", "lower", "insert_p50_ms on ingest"},
	{"durable.disk_bytes_per_item", "B", "lower", "ingest_items_per_s on ingest"},
	{"wire.encode_insert_us_per_batch", "us", "lower", "insert_p50_ms on ingest"},
}

// recordOnly are per-layer metrics the record line carries but the
// summary does not: each is zero on a healthy run (reconnects, replica
// lag, balancer moves), a ratio pinned at or near one value by the
// profile (rollup hit ratios, replica share), or defined on one workload
// only (generator lateness).
var recordOnly = []metricSpec{
	{"netmsg.reconnects", "count", "lower", "error_rate"},
	{"rollup.hit_ratio.range", "ratio", "higher", "query_p50_ms on dashboard"},
	{"rollup.hit_ratio.replica", "ratio", "higher", "replica_query_p50_ms on dashboard"},
	{"rollup.hit_ratio.groupby", "ratio", "higher", "groupby_p50_ms on dashboard"},
	{"replica.max_lag_records", "count", "lower", "replica_query_p99_ms and error_rate on mixed"},
	{"replica.share", "ratio", "higher", "replica_query_p50_ms on dashboard"},
	{"manager.moves", "count", "lower", "every latency; expected 0"},
	{"loadgen.late_p99_ms", "ms", "lower", "insert_p99_ms on mixed"},
}
