package main

// metricSpec names one metric the harness prints. The end-to-end list
// and the per-layer list below are the single source of the names:
// BENCHMARK.json must repeat them exactly (spec_test.go checks it).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare reports a regression (end-to-end only).
	Bound float64
	// Exact marks a pure function of (workload, seed, seconds), which
	// must repeat bit for bit between two runs. serve-mixed is exempt:
	// its engine commits as many iterations as fit beside the load.
	Exact bool
}

// endToEnd lists what a user of the system sees. Every workload emits
// every one of them, and none is ever 0 (the driver's contract), so the
// three request_* metrics are defined per workload by the operation its
// client waits on: one Iterate on iter-hdd and iter-cpu, one HTTP read
// on serve-mixed, one ApplyDeltas batch on churn-delta.
//
// A bound applies to every workload, and the driver holds it against
// the spread over ten different seeds, so each is at least three times
// the widest interquartile spread any workload showed across seeds
// (README.md has the table). Runs of one seed agree far more closely;
// -compare on equal seeds also demands that the exact counts match.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "iter_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "recall_at_k", Unit: "ratio", Better: "higher", Bound: 0.05, Exact: true},
	{Name: "alloc_mb_per_iter", Unit: "MB", Better: "lower", Bound: 0.12},
	{Name: "ops_per_iter", Unit: "count", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "request_p50_ms", Unit: "ms", Better: "lower", Bound: 0.18},
	{Name: "request_slo_frac", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.16},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// perLayer lists the metrics of single packages (the name's prefix is
// the package). A workload that bypasses a layer reports exactly 0 for
// it in the driver's result line and omits it from the printed report.
var perLayer = []metricSpec{
	{Name: "profile.cosine_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "profile.jaccard_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "profile.decode_ns_per_vector", Unit: "ns", Better: "lower"},

	{Name: "knn.score_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "knn.score_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "knn.topk_push_ns", Unit: "ns", Better: "lower"},
	{Name: "knn.topk_merge_ns", Unit: "ns", Better: "lower"},

	{Name: "tuples.add_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuples.shard_read_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuples.dedup_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "tuples.spill_bytes", Unit: "count", Better: "lower", Exact: true},

	{Name: "partition.assign_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.build_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.objective", Unit: "count", Better: "lower", Exact: true},

	{Name: "pigraph.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "pigraph.pi_edges", Unit: "count", Better: "lower", Exact: true},
	{Name: "pigraph.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "pigraph.exec_overhead_us_per_op", Unit: "us", Better: "lower"},

	{Name: "disk.modeled_ms", Unit: "ms", Better: "lower"},
	{Name: "disk.slept_ms", Unit: "ms", Better: "lower"},
	{Name: "disk.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "disk.bytes_read", Unit: "count", Better: "lower"},
	{Name: "disk.bytes_written", Unit: "count", Better: "lower"},
	{Name: "disk.seeks", Unit: "count", Better: "lower"},

	{Name: "core.p1_partition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.p2_tuples_ms", Unit: "ms", Better: "lower"},
	{Name: "core.p3_pigraph_ms", Unit: "ms", Better: "lower"},
	{Name: "core.p4_score_ms", Unit: "ms", Better: "lower"},
	{Name: "core.p5_update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.tuples_scored", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.edge_changes", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.prefetched_loads", Unit: "count", Better: "higher"},
	{Name: "core.async_unloads", Unit: "count", Better: "higher"},
	{Name: "core.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.delta_full_iters", Unit: "count", Better: "lower", Exact: true},

	{Name: "netstore.get_us", Unit: "us", Better: "lower"},
	{Name: "netstore.put_base_us", Unit: "us", Better: "lower"},
	{Name: "netstore.put_partial_us", Unit: "us", Better: "lower"},
	{Name: "netstore.lease_us", Unit: "us", Better: "lower"},
	{Name: "netstore.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "netstore.epoch_us", Unit: "us", Better: "lower"},
	{Name: "netstore.neighbors_us", Unit: "us", Better: "lower"},
	{Name: "netstore.profile_us", Unit: "us", Better: "lower"},
	{Name: "netstore.push_updates_us", Unit: "us", Better: "lower"},
	{Name: "netstore.replica_hit_us", Unit: "us", Better: "lower"},
	{Name: "netstore.replica_pull_ms", Unit: "ms", Better: "lower"},
	{Name: "netstore.replica_pulls", Unit: "count", Better: "lower"},

	{Name: "serve.neighbors_us", Unit: "us", Better: "lower"},
	{Name: "serve.profile_us", Unit: "us", Better: "lower"},
	{Name: "serve.update_us", Unit: "us", Better: "lower"},
	{Name: "serve.read_fallbacks", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},

	{Name: "load.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.dispatch_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "load.misses", Unit: "count", Better: "lower"},

	{Name: "delta.insert_us", Unit: "us", Better: "lower"},
	{Name: "delta.remove_us", Unit: "us", Better: "lower"},
	{Name: "delta.sim_evals_per_add", Unit: "count", Better: "lower", Exact: true},
	{Name: "delta.touched_users", Unit: "count", Better: "lower", Exact: true},

	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string
	Why  string
	run  func(rc runConfig) (*runResult, error)
}

var workloads = []workloadSpec{
	{
		Name: "iter-hdd",
		Why:  "the paper's setting: pipelined iterations on an emulated HDD, where device wait in disk, pigraph and the state store dominates and the similarity kernel hides behind it",
		run:  func(rc runConfig) (*runResult, error) { return runIter(rc, iterHDD) },
	},
	{
		Name: "iter-cpu",
		Why:  "the single-threaded baseline with no device emulation and 1/16 of the state resident: profile, knn, tuples and the state codec do the work, and disk must read exactly 0",
		run:  func(rc runConfig) (*runResult, error) { return runIter(rc, iterCPU) },
	},
	{
		Name: "serve-mixed",
		Why:  "open-loop HTTP reads and writes at 400/s against replicas while the engine iterates on the same 2-shard netstore, so a gain for lookups that costs the engine (or the reverse) shows",
		run:  runServe,
	},
	{
		Name: "churn-delta",
		Why:  "closed-loop user adds and deletes absorbed by internal/delta's search-and-refine with staleness-triggered full iterations, so a kernel change that hurts the delta path is visible",
		run:  runChurn,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
