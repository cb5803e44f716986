package main

// metricDef declares one reported metric; the lists below are the
// benchmark's contract and must match BENCHMARK.json (the smoke test
// checks both directions).
type metricDef struct {
	name, unit, better string
	src                string // per-layer metrics: where the value is measured
}

// endToEnd are the declared end-to-end metrics: the values in the result
// line of an untraced run, each with a bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"verified_pct", "%", "higher", ""},
	{"within_slo_pct", "%", "higher", ""},
	{"cpu_ms_per_batch", "ms", "lower", ""},
	{"alloc_mb_per_batch", "MB", "lower", ""},
	{"retained_heap_mb", "MB", "lower", ""},
	{"device_code_reduction_pct", "%", "higher", ""},
	{"host_code_reduction_pct", "%", "higher", ""},
	{"file_size_reduction_pct", "%", "higher", ""},
}

// wallClock are end-to-end metrics an untraced run prints and records but
// does not declare: on a shared host, stretches of hypervisor steal move
// them by 35-90% for minutes at a time, beyond any bound the declared
// metrics may carry. within_slo_pct, with its limit at about 1.5 times the
// p95, catches latency that roughly doubles; cpu_ms_per_batch, which steal
// does not inflate, catches added work.
var wallClock = []metricDef{
	{"batches_per_s", "1/s", "higher", ""},
	{"batch_p50_ms", "ms", "lower", ""},
	{"batch_p95_ms", "ms", "lower", ""},
}

// perLayer metrics come from the traced run; src names where each is
// measured and is printed next to its value.
var perLayer = func() []metricDef {
	const (
		observer = "observer (SubmitWith or Backend wrapper) or event tap"
		tap      = "event tap + job snapshot"
		handler  = "handler wrapper"
		rt       = "RoundTripper"
		delta    = "counter delta"
		stats    = "castore.Stats delta"
		setup    = "timed at setup"
	)
	m := []metricDef{
		{"gateway.queue_wait_ms_p50", "ms", "lower", "handler wrapper + Backend wrapper"},
		{"gateway.coalesce_pct", "%", "higher", delta},
		{"gateway.backend_submits_per_batch", "count", "lower", "Backend wrapper"},
		{"gateway.shed_pct", "%", "lower", delta},
		{"dserve.submit_ms_p50", "ms", "lower", "handler wrapper or SubmitWith call"},
		{"dserve.http_bytes_per_batch", "bytes", "lower", handler},
		{"dserve.job_queue_ms_p50", "ms", "lower", tap},
		{"dserve.job_setup_ms_p50", "ms", "lower", observer},
		{"ingest.tree_ms_p50", "ms", "lower", setup},
		{"dserve.persist_ms_p50", "ms", "lower", observer},
		{"dserve.memo_source_pct.memory", "%", "higher", delta},
		{"dserve.memo_source_pct.disk", "%", "lower", delta},
		{"dserve.memo_source_pct.peer", "%", "lower", delta},
		{"dserve.memo_source_pct.computed", "%", "lower", delta},
		{"plan.worker_busy_pct", "%", "higher", observer},
		{"plan.stages_per_batch", "count", "lower", observer},
		{"negativa.detect_ms_per_batch", "ms", "lower", observer},
		{"elfx.libindex_ms_per_batch", "ms", "lower", observer},
		{"negativa.locate_ms_per_batch", "ms", "lower", observer},
		{"negativa.compact_ms_per_batch", "ms", "lower", observer},
		{"negativa.recompute_pct", "%", "lower", delta},
		{"mlruntime.verify_ms_per_batch", "ms", "lower", observer},
		{"castore.puts_per_batch", "count", "lower", stats},
		{"castore.write_mb_per_batch", "MB", "lower", stats},
		{"castore.hits_per_batch", "count", "higher", stats},
	}
	for _, r := range peerRoutes {
		m = append(m, metricDef{"cluster.rpcs_per_batch." + r, "count", "lower", rt})
	}
	return append(m,
		metricDef{"cluster.wire_mb_per_batch", "MB", "lower", rt},
		metricDef{"cluster.dials_per_batch", "count", "lower", rt + " (httptrace)"},
		metricDef{"cluster.rpc_ms_p50", "ms", "lower", rt},
		metricDef{"cluster.rpc_ms_p95", "ms", "lower", rt},
		metricDef{"cluster.peer_serve_ms_p50", "ms", "lower", handler},
		metricDef{"cluster.hedge_fired_pct", "%", "lower", delta + " + " + rt},
		metricDef{"cluster.hedge_won_pct", "%", "higher", delta},
		metricDef{"cluster.remote_execs_per_batch", "count", "lower", delta},
		metricDef{"mlframework.generate_ms", "ms", "lower", setup},
		metricDef{"loadgen.send_lag_ms_p99", "ms", "lower", "load generator"},
		metricDef{"ledger.residual_pct", "%", "lower", "span ledger"},
		metricDef{"trace.overhead_pct", "%", "lower", "traced vs untraced batches_per_s"},
	)
}()
