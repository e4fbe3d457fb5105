package main

// Per-layer metrics. Layer names are this repository's packages; rt is
// the Go runtime and cuts across them. Workloads lists where a metric
// is measured — everywhere else it reads 0, because that layer does no
// work there (or, for the micro-benchmarks, because measuring it once
// is enough). About says which end-to-end metric it should move, and
// on which workload: that is the prediction a later change is held to.
var perLayer = []metricDef{
	// units / temporal / mapping / moving: the paper's kernels, timed by
	// direct calls on the values analytics_sql queries.
	{Name: "moving.inside_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "inside(one flight, one storm), §5.2 → query_per_s, query_p50_ms on analytics_sql"},
	{Name: "temporal.refine_ns_per_unit", Unit: "ns", Better: "lower", Workloads: []string{wAnalytics}, About: "refinement partition per input unit → query_per_s on analytics_sql"},
	{Name: "moving.distance_atmin_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "val(initial(atmin(distance(p, q)))) for one pair → query_per_s on analytics_sql (template b)"},
	{Name: "moving.area_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "area(one storm) → template c on analytics_sql"},
	{Name: "mapping.findunit_ns", Unit: "ns", Better: "lower", Workloads: []string{wUnique}, About: "binary search in a 16 384-unit mapping → query_p50_ms on query_unique (atinstant and k-NN refinement)"},
	{Name: "moving.atinstant_mregion_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "atinstant on a 4 096-unit region, r = 12 (§5.1) → nothing served today; kept so the paper's claim has a row"},

	{Name: "db.query_busy_s", Unit: "s", Better: "lower", Workloads: []string{wAnalytics}, About: "db.QueryContext replayed without HTTP → query_per_s, query_p95_ms on analytics_sql"},
	{Name: "db.template_a_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wAnalytics}, About: "planes × storms WHERE sometimes(inside) → query_p95_ms on analytics_sql"},
	{Name: "db.template_b_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wAnalytics}, About: "self-join on closest approach → query_per_s on analytics_sql"},
	{Name: "db.template_c_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wAnalytics}, About: "max(area(extent)) over storms → query_per_s on analytics_sql"},
	{Name: "db.template_d_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wAnalytics}, About: "exposure ranked for one storm → query_p50_ms on analytics_sql"},
	{Name: "db.parse_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "parse + plan of a trivial SELECT → query_p50_ms on analytics_sql"},

	{Name: "storage.encode_mpoint_ns_per_unit", Unit: "ns", Better: "lower", Workloads: []string{wAnalytics}, About: "§4 array encoding; no served path reads the stored form yet, so it moves nothing end to end"},
	{Name: "storage.decode_mpoint_ns_per_unit", Unit: "ns", Better: "lower", Workloads: []string{wAnalytics}, About: "as above"},
	{Name: "storage.mpoint_bytes_per_unit", Unit: "B", Better: "lower", Workloads: []string{wAnalytics}, About: "as above (space)"},
	{Name: "storage.put_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet}, About: "time in PageIO.Put under the log → ingest_ack_p50_ms on fleet_mixed (every tick pays one put)"},
	{Name: "storage.put_calls", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "log records written"},
	{Name: "storage.put_bytes", Unit: "B", Better: "lower", Workloads: []string{wFleet}, About: "bytes written to the log; ÷ user bytes is write amplification"},
	{Name: "storage.compact_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet}, About: "time in PageIO.Compact → checkpoint ticks, ingest_ack_p95_ms on fleet_mixed"},
	{Name: "storage.compact_calls", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "log compactions"},

	{Name: "index.merges", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "delta folds into a rebuilt tree → ingest_ack_p95_ms, ingest_stall_share on fleet_mixed"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "index.Build on the episode's final cubes → ingest_ack_p95_ms, ingest_stall_share on fleet_mixed; setup_s on the query workloads"},
	{Name: "index.insertbatch_us", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "InsertBatch of one tick's entries, no merge → ingest_ack_p50_ms on fleet_mixed"},
	{Name: "index.search_us", Unit: "us", Better: "lower", Workloads: []string{wUnique}, About: "window search on an index rebuilt from the epoch → query_p50_ms, query_per_s on query_unique; no change on query_repeat"},
	{Name: "index.nodes_visited_per_search", Unit: "count", Better: "lower", Workloads: []string{wUnique}, About: "tree nodes + delta entries touched per window search"},
	{Name: "index.knn_us", Unit: "us", Better: "lower", Workloads: []string{wUnique}, About: "best-first nearest search with refinement → query_p50_ms on query_unique"},
	{Name: "index.search_us_delta0", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "BENCH_PR2's 20 000-entry sweep, 0 % in the delta → query_p50_ms on fleet_mixed only (delta ≤ 1 % on the frozen workloads)"},
	{Name: "index.search_us_delta10", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "same sweep, 10 % in the delta"},
	{Name: "index.search_us_delta50", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "same sweep, 50 % in the delta"},

	{Name: "ingest.obs_per_s", Unit: "1/s", Better: "higher", Workloads: []string{wFleet}, About: "ingest_obs_per_s as the traced pass saw it"},
	{Name: "ingest.ack_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "ingest_ack_p50_ms as the traced pass saw it"},
	{Name: "ingest.ack_p95_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "ingest_ack_p95_ms as the traced pass saw it"},
	{Name: "ingest.stall_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet}, About: "ingest_stall_share as the traced pass saw it"},
	{Name: "ingest.ticks_plain", Unit: "count", Better: "higher", Workloads: []string{wFleet}, About: "ticks whose POST met neither a merge nor a checkpoint"},
	{Name: "ingest.ticks_merge", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "ticks across which Stats().IndexMerges advanced"},
	{Name: "ingest.ticks_ckpt", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "ticks across which Stats().WALCheckpoints advanced"},
	{Name: "ingest.tick_plain_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "ack median of plain ticks → ingest_ack_p50_ms on fleet_mixed"},
	{Name: "ingest.tick_merge_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "ack median of merge ticks → names the owner of ingest_ack_p95_ms"},
	{Name: "ingest.tick_ckpt_p50_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet}, About: "ack median of checkpoint ticks → names the owner of ingest_ack_p95_ms"},
	{Name: "ingest.merge_time_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet}, About: "ack time of merge ticks ÷ all ack time → ingest_stall_share"},
	{Name: "ingest.ckpt_time_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet}, About: "ack time of checkpoint ticks ÷ all ack time → ingest_stall_share"},
	{Name: "ingest.pipeline_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet}, About: "Pipeline.Ingest + Flush replayed without HTTP → ingest_obs_per_s on fleet_mixed"},
	{Name: "ingest.epochs_published", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "epochs the episode published"},
	{Name: "ingest.checkpoints", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "log checkpoints the episode wrote → recover_s against ingest_ack_p95_ms"},
	{Name: "ingest.compaction_ratio", Unit: "ratio", Better: "higher", Workloads: []string{wFleet}, About: "observations merged into their predecessor unit ÷ applied → heap_live_mb"},
	{Name: "ingest.dropped", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "non-monotone observations dropped (0 on this stream)"},
	{Name: "ingest.wal_resident_bytes_per_obs", Unit: "B", Better: "lower", Workloads: []string{wFleet}, About: "wal_resident_bytes_per_obs as the traced pass saw it"},
	{Name: "ingest.epoch_window_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique}, About: "Epoch.Window called directly with the decoded arguments → query_p50_ms on query_unique"},
	{Name: "ingest.epoch_atinstant_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique}, About: "Epoch.AtInstant called directly → query_p50_ms on query_unique"},
	{Name: "ingest.epoch_nearest_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique}, About: "Epoch.Nearest called directly → query_p50_ms on query_unique"},
	{Name: "ingest.open_replay_s", Unit: "s", Better: "lower", Workloads: []string{wFleet}, About: "ingest.Open on the log left behind → recover_s"},

	{Name: "live.notify_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet}, About: "time in the publish hook on the flush path → ingest_ack_p50_ms on fleet_mixed"},
	{Name: "live.events", Unit: "count", Better: "higher", Workloads: []string{wFleet}, About: "enter/leave events emitted"},
	{Name: "live.dropped", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "events dropped from full subscriber rings (no reader is attached)"},
	{Name: "live.evaluated", Unit: "count", Better: "lower", Workloads: []string{wFleet}, About: "subscription evaluations → shares CPU with the writer, so ingest_obs_per_s"},
	{Name: "live.avg_eval_us", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "mean time per evaluation → ingest_obs_per_s on fleet_mixed"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "hits ÷ lookups in the measured phase: 1 on query_repeat, 0 elsewhere"},
	{Name: "cache.get_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "time in ResultCache.Get → query_per_s, query_p50_ms on query_repeat"},
	{Name: "cache.put_busy_s", Unit: "s", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "time in ResultCache.Put: the overhead the cache puts on misses → query_p50_ms on query_unique"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "entries evicted in the pass"},
	{Name: "cache.bytes", Unit: "B", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "bytes resident at the end → heap_live_mb"},

	{Name: "server.window_p50_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat}, About: "handler time of /v1/window → query_p50_ms on query_unique and query_repeat"},
	{Name: "server.atinstant_p50_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat}, About: "handler time of /v1/atinstant → query_p95_ms on query_unique (its largest answers)"},
	{Name: "server.nearby_p50_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat}, About: "handler time of /v1/nearby → query_p50_ms on query_unique and query_repeat"},
	{Name: "server.query_p50_us", Unit: "us", Better: "lower", Workloads: []string{wAnalytics}, About: "handler time of /v1/query → query_p50_ms on analytics_sql"},
	{Name: "server.ingest_p50_us", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "handler time of /v1/ingest → ingest_ack_p50_ms on fleet_mixed"},
	{Name: "server.read_p95_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "query_p95_ms as the untraced pass of the traced run saw it, as measured: the form in which the demoted read tails reach BENCHMARK.json"},
	{Name: "server.read_p99_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "query_p99_ms likewise"},
	{Name: "server.self_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "1 − child layer time ÷ handler time: decode, canonicalise, cache key, JSON encode → query_p50_ms on query_repeat"},
	{Name: "server.ingest_decode_us", Unit: "us", Better: "lower", Workloads: []string{wFleet}, About: "handler − replayed pipeline time for the same batch: JSON decode of 570 observations → ingest_ack_p50_ms"},
	{Name: "server.resp_bytes_per_query", Unit: "B", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "mean read answer size → query_p95_ms on query_unique"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "loopback round trip − handler time, median: the share that is net/http, not this repository's"},

	{Name: "obs.record_request_ns", Unit: "ns", Better: "lower", Workloads: []string{wRepeat}, About: "one Metrics.RecordRequest → query_p50_ms on query_repeat, where one mutex'd record is a visible share of a hit"},
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower", Workloads: []string{wRepeat}, About: "one Metrics.Snapshot (holds the same mutex)"},

	{Name: "rt.allocs_per_op", Unit: "count", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "heap allocations per request in the traced pass → tails and heap_live_mb"},
	{Name: "rt.bytes_per_op", Unit: "B", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "bytes allocated per request → query_p99_ms, ingest_ack_p95_ms"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "collections during the traced pass"},
	{Name: "rt.gc_pause_total_ms", Unit: "ms", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "stop-the-world time during the traced pass → tails"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "traced ÷ untraced measured time − 1, same work"},
	{Name: "trace.replay_overrun_share", Unit: "ratio", Better: "lower", Workloads: []string{wFleet, wUnique, wRepeat, wAnalytics}, About: "time by which replayed child layers exceed the parent they were replayed for ÷ handler time: what the self times add up to beyond the handler's time; 0 when the decomposition is consistent"},
}

var perLayerByName = byName(perLayer)
