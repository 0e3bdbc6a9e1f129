package main

// metric is one benchmark metric. BENCHMARK.json lists the same names,
// units and directions; the per-layer ones also name the end-to-end
// metrics they should move and the workloads on which they should move
// them (see README.md).
type metric struct {
	name, unit, better string
	moves              []string // per-layer only
	on                 []string // per-layer only
}

// Every workload reports every end-to-end metric, and none reads 0, so
// each can carry a relative bound. Serving latency exists only on kv; it
// is reported per layer (kv.*).
var endToEnd = []metric{
	{name: "host_run_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "host_peak_rss_mb", unit: "MB", better: "lower"},
	{name: "sim_exec_s", unit: "s", better: "lower"},
}

var (
	allLoads = []string{"fig4", "graph-mc", "kv"}
	hostRun  = []string{"host_run_s"}
	simExec  = []string{"sim_exec_s"}
)

// perLayer lists the traced run's metrics. A metric that a workload has
// no work for (serving latency outside kv, an input generator the
// workload does not use) reads 0.
var perLayer = []metric{
	{"simmem.loads", "count", "lower", []string{"sim_exec_s", "host_run_s"}, []string{"fig4", "graph-mc"}},
	{"simmem.l1_miss_frac", "ratio", "lower", simExec, []string{"graph-mc"}},
	{"simmem.llc_miss_per_kload", "1/kload", "lower", simExec, []string{"fig4"}},
	{"simmem.host_ns_per_load", "ns", "lower", hostRun, allLoads},
	{"simmem.replay_random_ns", "ns", "lower", hostRun, []string{"fig4"}},
	{"simmem.replay_seq_ns", "ns", "lower", hostRun, []string{"graph-mc"}},

	{"core.gc_cycles", "count", "lower", hostRun, []string{"fig4", "kv"}},
	{"core.reloc_objects", "count", "lower", hostRun, []string{"fig4"}},
	{"core.ec_small_median", "pages", "lower", hostRun, []string{"fig4"}},
	{"core.mutator_reloc_frac", "ratio", "higher", simExec, []string{"fig4"}},
	{"core.barrier_slow_per_kload", "1/kload", "lower", simExec, []string{"fig4"}},
	{"core.pause_p50_cycles", "cycles", "lower", simExec, []string{"fig4", "kv"}},
	{"core.pause_max_cycles", "cycles", "lower", simExec, []string{"fig4", "kv"}},
	{"core.stall_count", "count", "lower", simExec, []string{"fig4", "kv"}},
	{"core.stall_p99_cycles", "cycles", "lower", simExec, []string{"fig4", "kv"}},
	{"core.host_alloc_ns", "ns", "lower", hostRun, []string{"kv"}},
	{"core.host_barrier_ns", "ns", "lower", hostRun, []string{"fig4", "graph-mc"}},
	{"core.host_gc_ms_per_live_mb", "ms/MB", "lower", hostRun, []string{"fig4", "kv"}},

	{"heap.hotmap_density", "ratio", "higher", simExec, []string{"fig4"}},
	{"heap.seg_purity", "ratio", "higher", simExec, []string{"fig4"}},

	{"hcsgc.host_new_runtime_ms", "ms", "lower", []string{"setup_s"}, allLoads},
	{"loadgen.host_generate_ms", "ms", "lower", []string{"setup_s"}, []string{"kv"}},
	{"graphgen.host_generate_ms", "ms", "lower", []string{"setup_s"}, []string{"graph-mc"}},

	{"kv.p50_cycles", "cycles", "lower", simExec, []string{"kv"}},
	{"kv.p99_cycles", "cycles", "lower", simExec, []string{"kv"}},
	{"kv.p999_cycles", "cycles", "lower", simExec, []string{"kv"}},
	{"kv.p999_burst_cycles", "cycles", "lower", simExec, []string{"kv"}},
	{"kv.slo_met_frac", "ratio", "higher", simExec, []string{"kv"}},
	{"kv.requests", "count", "higher", simExec, []string{"kv"}},

	{"planes.host_overhead_frac", "ratio", "lower", hostRun, allLoads},
	{"planes.host_off_s", "s", "lower", hostRun, allLoads},
	{"trace.overhead_s", "s", "lower", hostRun, allLoads},
	{"trace.host_run_s", "s", "lower", hostRun, allLoads},

	{"host_self_frac.simmem", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.heap", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.core", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.contention", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.workloads", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.graphalg", "ratio", "lower", hostRun, []string{"graph-mc"}},
	{"host_self_frac.kvstore", "ratio", "lower", hostRun, []string{"kv"}},
	{"host_self_frac.signals", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.latency", "ratio", "lower", hostRun, allLoads},
	{"host_self_frac.go-runtime", "ratio", "lower", hostRun, allLoads},
	{"host_self.cpu_s", "s", "lower", hostRun, allLoads},
}

// selfFracModules are the modules whose profile share is a metric.
var selfFracModules = []string{"simmem", "heap", "core", "contention", "workloads",
	"graphalg", "kvstore", "signals", "latency", "go-runtime"}
