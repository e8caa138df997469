package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// metricDef names one metric. The tables below are the single source of
// the names: BENCHMARK.json lists the same names (the smoke test checks
// it), and `-describe` renders README's metric table from them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Layer  string
	// Exact marks a counter that must repeat exactly at a fixed seed and a
	// fixed op count (-scale tiny); the smoke test checks it.
	Exact bool
	How   string // how it is measured
	Moves string // which end-to-end metric it should move, on which workload
}

// Every workload reports every end-to-end metric (the contract compares
// each metric on each workload), so the two steady-state op classes carry
// generic names. What they are on each workload:
//
//	workload         query_*                                  companion_*
//	cold_scan        Recommend, predicate selects 2–10 %      Recommend, predicate selects 30–50 %
//	explore_serve    POST /api/recommend, never-seen query    POST /api/recommend, dashboard repeat
//	append_query     RecommendSQL right after an append       DB.Append ack (WAL fsync per batch)
//	cluster_scatter  RecommendSQL on the sharded coordinator  RecommendSQL on the placed (rf=2) one
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "generate tables from the seed, register, boot servers/cluster; second smallest of the run's 7-19 set-ups, which are spread over the run"},
	{Name: "first_op_s", Unit: "s", Better: "lower", Bound: 0.25,
		How: "first query on the fresh state (stats cold, caches cold); second smallest over the same set-ups"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		How: "median latency of the workload's query class over the quietest stretch of the window: consecutive samples, a twentieth of the window's and at least 5"},
	{Name: "companion_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		How: "the same for the workload's second op class"},
}

const (
	wCold    = "cold_scan"
	wServe   = "explore_serve"
	wAppend  = "append_query"
	wCluster = "cluster_scatter"
)

var perLayer = []metricDef{
	{Name: "sql.parse_us", Unit: "us", Better: "lower", Layer: "sql",
		How: "sql.AnalystQueryExplore per generated statement", Moves: "companion_p50_ms/explore_serve; nothing elsewhere"},

	{Name: "stats.collect_ms", Unit: "ms", Better: "lower", Layer: "stats",
		How: "fresh stats.NewCollector().Stats(table)", Moves: "first_op_s on every workload; no steady-state metric"},
	{Name: "stats.clusters_ms", Unit: "ms", Better: "lower", Layer: "stats",
		How: "same collector, CorrelationClusters over the string dimensions", Moves: "first_op_s on every workload"},
	{Name: "stats.extend_ms", Unit: "ms", Better: "lower", Layer: "stats",
		How: "same collector, Stats after one 600-row append to a private clone", Moves: "query_p50_ms/append_query"},

	{Name: "core.self_ms", Unit: "ms", Better: "lower", Layer: "core",
		How:   "per-op self time of the span around Recommend (minus wrapped Backend/ExecCache time); on explore_serve the in-process Session span, so it includes sql+scheduler",
		Moves: "companion_p50_ms/explore_serve mostly; <= 10 % of query_p50_ms/cold_scan"},
	{Name: "core.backend_calls", Unit: "count/op", Better: "lower", Layer: "core",
		How: "calls seen by the wrapped core.Backend per traced op", Moves: "query_p50_ms/cluster_scatter (each call is a scatter)"},
	{Name: "core.views_candidate", Exact: true, Unit: "count/op", Better: "higher", Layer: "core", How: "Result.Stats.CandidateViews", Moves: "none (plan shape)"},
	{Name: "core.views_executed", Exact: true, Unit: "count/op", Better: "lower", Layer: "core", How: "Result.Stats.ExecutedViews", Moves: "query_p50_ms/cold_scan"},
	{Name: "core.table_scans", Exact: true, Unit: "count/op", Better: "lower", Layer: "core", How: "Result.Stats.TableScans", Moves: "query_p50_ms/cold_scan"},
	{Name: "core.rows_read", Exact: true, Unit: "count/op", Better: "lower", Layer: "core", How: "Result.Stats.RowsRead", Moves: "query_p50_ms/cold_scan, query_p50_ms/append_query"},
	{Name: "core.op.deviation.ms", Unit: "ms", Better: "lower", Layer: "core", How: "4 Recommend calls with Operator=deviation on a cache-free DB over the workload's table", Moves: "query_p50_ms/cold_scan"},
	{Name: "core.op.similarity.ms", Unit: "ms", Better: "lower", Layer: "core", How: "same, Operator=similarity with a count(*) probe", Moves: "none gated; attributes operator cost"},
	{Name: "core.op.outlier.ms", Unit: "ms", Better: "lower", Layer: "core", How: "same, Operator=outlier", Moves: "none gated"},
	{Name: "core.op.typical.ms", Unit: "ms", Better: "lower", Layer: "core", How: "same, Operator=typical", Moves: "none gated"},
	{Name: "core.op.trend.ms", Unit: "ms", Better: "lower", Layer: "core", How: "same, Operator=trend", Moves: "none gated"},
	{Name: "core.phased8.ms", Unit: "ms", Better: "lower", Layer: "core", How: "same, deviation with Phases=8", Moves: "none gated"},

	{Name: "engine.shared_scan_ms", Unit: "ms", Better: "lower", Layer: "engine",
		How: "median self time of RunSharedScan at the wrapped core.Backend seam (local backend only)", Moves: "query_p50_ms/cold_scan; 0 for explore_serve repeats"},
	{Name: "engine.count_ms", Unit: "ms", Better: "lower", Layer: "engine",
		How: "median time of the target-count Run at the same seam", Moves: "every op incl. cache-hit repeats"},
	{Name: "engine.rows_per_ms", Unit: "rows/ms", Better: "higher", Layer: "engine",
		How: "table rows / median shared-scan time", Moves: "query_p50_ms/cold_scan"},
	{Name: "engine.partials_ms", Unit: "ms", Better: "lower", Layer: "engine",
		How: "Executor.RunPartials of a captured plan on the two half ranges (sum), store-free executor", Moves: "query_p50_ms/cluster_scatter"},
	{Name: "engine.merge_ms", Unit: "ms", Better: "lower", Layer: "engine", How: "Partial.Merge of the two halves", Moves: "query_p50_ms/cluster_scatter"},
	{Name: "engine.finalize_ms", Unit: "ms", Better: "lower", Layer: "engine", How: "Partial.Finalize of the merged partials", Moves: "query_p50_ms/cluster_scatter"},
	{Name: "engine.append_ms", Unit: "ms", Better: "lower", Layer: "engine", How: "Catalog.Append of one 600-row batch to a private clone, no sink", Moves: "companion_p50_ms/append_query"},
	{Name: "engine.pstore.reuse_ratio", Unit: "ratio", Better: "higher", Layer: "engine",
		How: "DB.IncrementalStats over the traced pass: rowsReused/(rowsReused+rowsScanned)", Moves: "query_p50_ms/append_query (~0.95) and query_p50_ms/explore_serve (0: the fill cost)"},
	{Name: "engine.pstore.hits", Unit: "count/op", Better: "higher", Layer: "engine", How: "same snapshot delta per traced op", Moves: "query_p50_ms/append_query"},
	{Name: "engine.pstore.misses", Unit: "count/op", Better: "lower", Layer: "engine", How: "same", Moves: "query_p50_ms/explore_serve"},
	{Name: "engine.pstore.evictions", Unit: "count/op", Better: "lower", Layer: "engine", How: "same", Moves: "query_p50_ms/explore_serve (> 0: stream larger than the store)"},
	{Name: "engine.pstore.bytes", Unit: "bytes", Better: "lower", Layer: "engine", How: "store size at the end of the traced pass", Moves: "proc.peak_rss_mb"},
	{Name: "engine.snapshot_write_ms", Unit: "ms", Better: "lower", Layer: "engine", How: "engine.WriteTableSnapshot to memory", Moves: "setup_s/cluster_scatter (fragment shipping), wal.checkpoint_ms"},
	{Name: "engine.snapshot_read_ms", Unit: "ms", Better: "lower", Layer: "engine", How: "engine.ReadTable of that snapshot", Moves: "setup_s/cluster_scatter, wal.recovery_ms"},
	{Name: "engine.snapshot_bytes_per_row", Exact: true, Unit: "bytes/row", Better: "lower", Layer: "engine", How: "snapshot size / rows", Moves: "same"},

	{Name: "service.session_ms", Unit: "ms", Better: "lower", Layer: "service", How: "Session.RecommendSQL in-process over the dashboard pool", Moves: "companion_p50_ms/explore_serve; 0 elsewhere"},
	{Name: "service.cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: "service", How: "CacheStats delta over the traced pass", Moves: "companion_p50_ms/explore_serve"},
	{Name: "service.cache.evictions", Unit: "count/op", Better: "lower", Layer: "service", How: "same", Moves: "companion_p50_ms/explore_serve"},
	{Name: "service.cache.bytes", Unit: "bytes", Better: "lower", Layer: "service", How: "cache size at the end of the traced pass", Moves: "proc.peak_rss_mb"},
	{Name: "service.sched.coalesced", Unit: "count/op", Better: "higher", Layer: "service", How: "SchedulerStats delta", Moves: "none expected (no concurrent duplicates)"},
	{Name: "service.sched.shed", Unit: "count/op", Better: "lower", Layer: "service", How: "SchedulerStats delta; a shed request is a failed op", Moves: "failed"},
	{Name: "service.sched.queue_wait_ms", Unit: "ms", Better: "lower", Layer: "service", How: "mean of seedb_scheduler_queue_wait_seconds read from GET /metrics", Moves: "companion_p50_ms/explore_serve"},

	{Name: "frontend.http_overhead_ms", Unit: "ms", Better: "lower", Layer: "frontend", How: "HTTP median of dashboard repeats - service.session_ms (decode, JSON encode, net/http)", Moves: "companion_p50_ms/explore_serve"},
	{Name: "frontend.response_bytes", Unit: "bytes/op", Better: "lower", Layer: "frontend", How: "mean response body size", Moves: "companion_p50_ms/explore_serve"},
	{Name: "frontend.repeat_p99_ms", Unit: "ms", Better: "lower", Layer: "frontend", How: "99th percentile of dashboard repeats (a tail, not a gate)", Moves: "none gated"},
	{Name: "frontend.new_p90_ms", Unit: "ms", Better: "lower", Layer: "frontend", How: "90th percentile of never-seen queries in the traced pass", Moves: "none gated"},

	{Name: "cluster.wire.encode_ms", Unit: "ms", Better: "lower", Layer: "cluster", How: "EncodeShardRequest + ExecShardRequest's response through json.Marshal", Moves: "query_p50_ms, companion_p50_ms/cluster_scatter"},
	{Name: "cluster.wire.decode_ms", Unit: "ms", Better: "lower", Layer: "cluster", How: "json.Unmarshal of that ShardResponse", Moves: "same"},
	{Name: "cluster.wire.resp_bytes", Exact: true, Unit: "bytes", Better: "lower", Layer: "cluster", How: "size of that response (whole-table range)", Moves: "same"},
	{Name: "cluster.wire.req_bytes", Exact: true, Unit: "bytes", Better: "lower", Layer: "cluster", How: "size of the marshalled ShardRequest", Moves: "same"},
	{Name: "cluster.worker_exec_ms", Unit: "ms", Better: "lower", Layer: "cluster", How: "median time in the wrapped worker handler on /api/shard/exec", Moves: "query_p50_ms/cluster_scatter"},
	{Name: "cluster.sharded.rpc_per_op", Exact: true, Unit: "count/op", Better: "lower", Layer: "cluster", How: "ShardedBackend.Counters().ShardCalls delta / sharded ops", Moves: "query_p50_ms/cluster_scatter"},
	{Name: "cluster.placed.rpc_per_op", Exact: true, Unit: "count/op", Better: "lower", Layer: "cluster", How: "PlacementBackend.Counters().RangeCalls delta / placed ops", Moves: "companion_p50_ms/cluster_scatter"},
	{Name: "cluster.retries", Exact: true, Unit: "count", Better: "lower", Layer: "cluster", How: "both backends' Counters(); must be 0", Moves: "failed"},
	{Name: "cluster.failovers", Exact: true, Unit: "count", Better: "lower", Layer: "cluster", How: "same; must be 0", Moves: "failed"},
	{Name: "cluster.mismatches", Exact: true, Unit: "count", Better: "lower", Layer: "cluster", How: "same; must be 0", Moves: "failed"},
	{Name: "cluster.gather_ms", Unit: "ms", Better: "lower", Layer: "cluster", How: "per-op self time of the wrapped cluster backend: its calls minus the union of worker handler time (wire, RPC, merge)", Moves: "query_p50_ms, companion_p50_ms/cluster_scatter"},
	{Name: "cluster.place_bootstrap_s", Unit: "s", Better: "lower", Layer: "cluster", How: "DB.PlaceRemote (ring + fragment shipping) inside setup", Moves: "setup_s/cluster_scatter"},

	{Name: "wal.bytes_per_row", Exact: true, Unit: "bytes/row", Better: "lower", Layer: "wal", How: "DurabilityStats().WALBytes growth across one append / 600", Moves: "companion_p50_ms/append_query"},
	{Name: "wal.fsyncs", Exact: true, Unit: "count/op", Better: "lower", Layer: "wal", How: "DurabilityStats().Syncs delta per append", Moves: "companion_p50_ms/append_query"},
	{Name: "wal.fsync_ms", Unit: "ms", Better: "lower", Layer: "wal", How: "DurabilityStats().FsyncMillis (the store's EWMA)", Moves: "companion_p50_ms/append_query"},
	{Name: "wal.checkpoints", Exact: true, Unit: "count", Better: "higher", Layer: "wal", How: "DurabilityStats().Checkpoints delta over the traced pass", Moves: "wal.append_stall_max_ms"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "wal", How: "one forced DB.Checkpoint after the traced pass", Moves: "wal.append_stall_max_ms; the median hides it"},
	{Name: "wal.append_stall_max_ms", Unit: "ms", Better: "lower", Layer: "wal", How: "slowest Append in the traced pass (the checkpointing one)", Moves: "none gated: a tail"},
	{Name: "wal.ingest_rows_per_s", Unit: "rows/s", Better: "higher", Layer: "wal", How: "rows acked / time inside Append, so checkpoint stalls count", Moves: "companion_p50_ms/append_query"},
	{Name: "wal.recovery_ms", Unit: "ms", Better: "lower", Layer: "wal", How: "EnableDurability on a copy of the live data dir (snapshot load + WAL replay)", Moves: "none gated"},
	{Name: "wal.replayed_batches", Exact: true, Unit: "count", Better: "lower", Layer: "wal", How: "RecoveryInfo.ReplayedBatches of that recovery", Moves: "wal.recovery_ms"},

	{Name: "distance.emd_us", Unit: "us", Better: "lower", Layer: "distance", How: "EMD.Distance on one executed view's distributions", Moves: "part of core.self_ms; < 1 % of anything"},
	{Name: "binpack.pack_us", Unit: "us", Better: "lower", Layer: "binpack", How: "BranchAndBound over the table's dimension cardinalities at the default budget", Moves: "part of core.self_ms; < 1 % of anything"},

	{Name: "client.query_p90_ms", Unit: "ms", Better: "lower", Layer: "client", How: "90th percentile of the query class over the whole traced run (a tail, not a gate: its spread over ten seeds was 0.05-0.20 here)", Moves: "none gated"},
	{Name: "client.companion_p90_ms", Unit: "ms", Better: "lower", Layer: "client", How: "the same for the companion class", Moves: "none gated"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "proc", How: "VmHWM from /proc/self/status", Moves: "none gated"},
	{Name: "proc.allocs_per_op", Unit: "count/op", Better: "lower", Layer: "proc", How: "runtime.MemStats.Mallocs delta over the untraced part of the run / ops", Moves: "query_p50_ms/cold_scan, query_p50_ms/explore_serve"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB/op", Better: "lower", Layer: "proc", How: "TotalAlloc delta, same window", Moves: "same"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: "proc", How: "runtime.MemStats.GCCPUFraction at exit", Moves: "same"},
	{Name: "proc.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "proc", How: "traced-pass query median / untraced median of the same run - 1", Moves: "validity of every traced number (<= 0.05)"},
	{Name: "proc.trace_uncovered_frac", Unit: "ratio", Better: "lower", Layer: "proc", How: "share of traced op wall inside no product-layer span (harness self time)", Moves: "validity: <= 0.05 asserted on cold_scan and append_query"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metrics holds one run's values by name.
type metrics map[string]float64

// metricValue is the wire form of one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export renders m over defs; every def gets a value (0 when the layer
// does no work on this workload), and every value must be finite.
func (m metrics) export(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// describe renders the metric tables as markdown (README embeds it).
func describe() string {
	var b strings.Builder
	b.WriteString("| metric | unit | better | bound | how measured |\n|---|---|---|---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f | %s |\n", d.Name, d.Unit, d.Better, d.Bound, d.How)
	}
	b.WriteString("\n| metric | unit | layer | how measured | should move (end-to-end metric/workload) |\n|---|---|---|---|---|\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Layer, d.How, d.Moves)
	}
	return b.String()
}
