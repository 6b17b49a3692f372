package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root repeats this catalogue for the driver; bench_test.go keeps the two
// identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload emits every one of them; see README.md for what each
// means on the graph workloads and on serve-mix. Every time and the peak RSS
// carry the widest bound the driver allows: on the shared host the benchmark
// was sized on, ten runs of unchanged code spread by up to 16 % of their
// median (README.md, "Probe numbers"). Q is exact for fixed code, but the
// mean Q of five R-MAT graphs spreads up to 2.5 % between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"modularity", "Q", "higher", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// perLayer are the ladder metrics of the traced run, one group per package
// of the repo. A layer a workload does not reach reports what the program
// reports for it: 0 bytes on the wire for plm, 0 jobs outside serve-mix.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.split_s", Unit: "s", Better: "lower"},
	{Name: "graph.read_text_mb_s", Unit: "MB/s", Better: "higher"},

	{Name: "wire.encode_triple_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_triple_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_assign_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_assign_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_triple", Unit: "B", Better: "lower"},

	{Name: "comm.exchange_mem_us", Unit: "us", Better: "lower"},
	{Name: "comm.exchange_tcp_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "comm.wire_mb", Unit: "MB", Better: "lower"},
	{Name: "comm.rounds", Unit: "count", Better: "lower"},
	{Name: "comm.bytes_per_round", Unit: "B", Better: "lower"},

	{Name: "edgetable.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "edgetable.sweep_ns", Unit: "ns", Better: "lower"},
	{Name: "edgetable.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "edgetable.freeze_ns", Unit: "ns", Better: "lower"},
	{Name: "edgetable.csr_sweep_ns", Unit: "ns", Better: "lower"},
	{Name: "edgetable.probe_len", Unit: "count", Better: "lower"},
	{Name: "edgetable.table_mb", Unit: "MiB", Better: "lower"},

	{Name: "movesched.coloring_s", Unit: "s", Better: "lower"},
	{Name: "movesched.colors", Unit: "count", Better: "lower"},
	{Name: "movesched.permutation_s", Unit: "s", Better: "lower"},

	{Name: "par.for_overhead_us", Unit: "us", Better: "lower"},

	{Name: "core.refine_s", Unit: "s", Better: "lower"},
	{Name: "core.propagate_s", Unit: "s", Better: "lower"},
	{Name: "core.findbest_s", Unit: "s", Better: "lower"},
	{Name: "core.update_s", Unit: "s", Better: "lower"},
	{Name: "core.reconstruct_s", Unit: "s", Better: "lower"},
	{Name: "core.first_level_s", Unit: "s", Better: "lower"},
	{Name: "core.levels", Unit: "count", Better: "lower"},
	{Name: "core.inner_iters", Unit: "count", Better: "lower"},
	{Name: "core.sequential_s", Unit: "s", Better: "lower"},
	{Name: "core.plm_t1_s", Unit: "s", Better: "lower"},
	{Name: "core.par_r1_s", Unit: "s", Better: "lower"},
	{Name: "core.par_vs_seq", Unit: "ratio", Better: "lower"},
	{Name: "core.plm_speedup_t2", Unit: "ratio", Better: "higher"},
	{Name: "core.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.mallocs", Unit: "count", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "metrics.modularity_s", Unit: "s", Better: "lower"},
	{Name: "algo.overhead_s", Unit: "s", Better: "lower"},

	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.null_job_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.p50_ms.ring", Unit: "ms", Better: "lower"},
	{Name: "serve.p50_ms.sbm", Unit: "ms", Better: "lower"},
	{Name: "serve.p50_ms.lfr2k", Unit: "ms", Better: "lower"},
	{Name: "serve.p50_ms.lfr8k", Unit: "ms", Better: "lower"},
	{Name: "serve.p50_ms.rmat", Unit: "ms", Better: "lower"},
	{Name: "serve.p50_ms.edges", Unit: "ms", Better: "lower"},
	{Name: "serve.p90_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V float64
	N int
}

// outcome is what one run of one workload produced.
type outcome struct {
	Attempted int
	Failed    int
	Notes     []string // why a solve or job failed its check
	Metrics   map[string]value
}

func (o *outcome) set(name string, v float64, n int) { o.Metrics[name] = value{v, n} }

func (o *outcome) fail(note string) {
	o.Failed++
	if len(o.Notes) < 8 {
		o.Notes = append(o.Notes, note)
	}
}
