package main

// metricDef is one metric the benchmark prints. End-to-end metrics are
// printed with tracing off, per-layer metrics by the traced run.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Part names the end-to-end time a span adds into (setup_s,
	// diagnose_s, store_s or query_s); empty for everything else.
	Part string
	// Moves and On record, for a per-layer metric, which end-to-end
	// metric it should move and on which workloads: the prediction a
	// change to that layer is judged against.
	Moves, On string
}

// The workloads, named once so the tables below cannot drift from them.
const (
	wlPC     = "pc-small-messages"
	wlTable3 = "mpi2-table3"
	wlPerfDB = "perfdb-history"
)

// endToEnd are the metrics a user of the tool sees. Every one is measured
// on every workload, so none reads 0: the perfdb-only store and query
// times are per-layer metrics and op_s carries them end to end.
var endToEnd = []metricDef{
	{Name: "op_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "diagnose_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "allocs_m", Unit: "millions", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// Workload lists for the per-layer targets.
const (
	onLive = wlPC + "," + wlTable3
	onAll  = wlPC + "," + wlTable3 + "," + wlPerfDB
)

// perLayer are the traced run's metrics. Spans (the *_s names with a
// Part) time the benchmark's own calls into each module's public
// functions; <module>.cpu_s splits everything, Session.Run included, by
// the innermost pperf/internal/<module> frame of each CPU-profile sample.
var perLayer = []metricDef{
	// Set-up spans.
	{Name: "core.new_session_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlTable3},
	{Name: "core.enable_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlTable3},
	{Name: "core.launch_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlTable3},
	{Name: "consultant.start_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlTable3},
	{Name: "perfdb.open_store_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlPerfDB},
	{Name: "perfdb.serve_s", Unit: "s", Better: "lower", Part: "setup_s", Moves: "setup_s", On: wlPerfDB},
	// Diagnosis spans.
	{Name: "core.run_s", Unit: "s", Better: "lower", Part: "diagnose_s", Moves: "diagnose_s", On: onLive},
	{Name: "consultant.render_s", Unit: "s", Better: "lower", Part: "diagnose_s", Moves: "diagnose_s", On: onAll},
	{Name: "pperfmark.judge_s", Unit: "s", Better: "lower", Part: "diagnose_s", Moves: "diagnose_s", On: onAll},
	{Name: "perfdb.load_s", Unit: "s", Better: "lower", Part: "diagnose_s", Moves: "diagnose_s", On: wlPerfDB},
	{Name: "pperfmark.replay_s", Unit: "s", Better: "lower", Part: "diagnose_s", Moves: "diagnose_s", On: wlPerfDB},
	// Store and query spans, and their sums.
	{Name: "perfdb.add_s", Unit: "s", Better: "lower", Part: "store_s", Moves: "op_s", On: wlPerfDB},
	{Name: "perfdb.push_s", Unit: "s", Better: "lower", Part: "store_s", Moves: "op_s", On: wlPerfDB},
	{Name: "perfdb.open_s", Unit: "s", Better: "lower", Part: "query_s", Moves: "op_s", On: wlPerfDB},
	{Name: "perfdb.compare_s", Unit: "s", Better: "lower", Part: "query_s", Moves: "op_s", On: wlPerfDB},
	{Name: "perfdb.trend_s", Unit: "s", Better: "lower", Part: "query_s", Moves: "op_s", On: wlPerfDB},
	{Name: "store_s", Unit: "s", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "query_s", Unit: "s", Better: "lower", Moves: "op_s", On: wlPerfDB},

	// CPU by module, from the traced run's profile.
	{Name: "mdl.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s,allocs_m", On: wlPC},
	{Name: "probe.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s,allocs_m,alloc_mb", On: onLive},
	{Name: "sim.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: onLive},
	{Name: "mpi.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: wlPC},
	{Name: "metric.cpu_s", Unit: "s", Better: "lower", Moves: "alloc_mb,diagnose_s", On: wlTable3},
	{Name: "daemon.cpu_s", Unit: "s", Better: "lower", Moves: "alloc_mb,diagnose_s", On: wlTable3},
	{Name: "resource.cpu_s", Unit: "s", Better: "lower", Moves: "alloc_mb,diagnose_s", On: wlTable3},
	{Name: "core.cpu_s", Unit: "s", Better: "lower", Moves: "setup_s", On: wlTable3},
	{Name: "frontend.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "datasource.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "consultant.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: wlPerfDB + "," + wlTable3},
	{Name: "perfdb.cpu_s", Unit: "s", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "session.cpu_s", Unit: "s", Better: "lower", Moves: "op_s,diagnose_s", On: wlPerfDB},
	{Name: "stats.cpu_s", Unit: "s", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "wire.cpu_s", Unit: "s", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "pperfmark.cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: onAll},
	{Name: "runtime.bg_cpu_s", Unit: "s", Better: "lower", Moves: "diagnose_s", On: onLive},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower", Moves: "alloc_mb,diagnose_s", On: wlTable3},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "alloc_mb,diagnose_s", On: wlTable3},

	// Counts from public accessors and the counting recorder.
	{Name: "probe.executions", Unit: "count", Better: "lower", Moves: "diagnose_s,allocs_m", On: wlPC},
	{Name: "probe.ns_per_execution", Unit: "ns", Better: "lower", Moves: "diagnose_s,allocs_m", On: wlPC},
	{Name: "sim.virtual_s", Unit: "s", Better: "lower", Moves: "none (must not change)", On: wlPC},
	{Name: "core.run_alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb", On: wlTable3},
	{Name: "core.run_allocs_m", Unit: "millions", Better: "lower", Moves: "allocs_m", On: wlTable3},
	{Name: "daemon.sample_batches", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "daemon.samples", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "frontend.updates", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "frontend.enables", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlTable3 + "," + wlPerfDB},
	{Name: "consultant.tested", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlPerfDB + "," + wlTable3},
	{Name: "consultant.true", Unit: "count", Better: "higher", Moves: "diagnose_s", On: wlPerfDB + "," + wlTable3},
	{Name: "consultant.pruned", Unit: "count", Better: "lower", Moves: "diagnose_s", On: wlPerfDB + "," + wlTable3},
	{Name: "consultant.true_ratio", Unit: "ratio", Better: "higher", Moves: "diagnose_s", On: wlPerfDB + "," + wlTable3},
	{Name: "perfdb.events", Unit: "count", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "perfdb.archive_bytes", Unit: "bytes", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "wire.frames", Unit: "count", Better: "lower", Moves: "op_s", On: wlPerfDB},
	{Name: "wire.duplicate_frames", Unit: "count", Better: "lower", Moves: "op_s", On: wlPerfDB},

	// Traced minus untraced medians of the same run (choosing-metrics §4).
	{Name: "trace_overhead.setup_s", Unit: "s", Better: "lower", Moves: "none (measurement cost)", On: onAll},
	{Name: "trace_overhead.diagnose_s", Unit: "s", Better: "lower", Moves: "none (measurement cost)", On: onAll},
}

// cpuModules are the pperf/internal modules whose CPU the traced run
// reports as <module>.cpu_s: every module the workloads' profiles show.
// Samples with no frame in any of them go to runtime.bg_cpu_s.
var cpuModules = []string{
	"mdl", "probe", "sim", "mpi", "metric", "daemon", "resource", "core",
	"frontend", "datasource", "consultant", "perfdb", "session", "stats",
	"wire", "pperfmark",
}
