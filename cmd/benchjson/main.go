// Command benchjson runs the streaming-exchange and level-storage benchmark
// suites and writes the results as one machine-readable JSON file (see
// `make bench-json`, which produces BENCH_PR10.json at the repo root). With
// -compare it instead diffs two such files and exits non-zero when any
// metric regressed beyond tolerance — the perf gate behind
// `make bench-compare` and the CI warning step:
//
//	benchjson -out BENCH_PR10.json         # run the suite
//	benchjson -compare old.json new.json   # gate new against old
//
// Four measurement families go into the file:
//
//   - the micro-benchmarks BenchmarkExchangeAllocs and BenchmarkStreamOverlap
//     from internal/core plus the BenchmarkStore* / BenchmarkFreezeCSR
//     level-storage series from internal/edgetable, executed via
//     `go test -bench` and parsed from its output (ns/op, B/op, allocs/op,
//     plus the custom bytes/round and overlap-frac metrics);
//   - fixed-seed end-to-end solves of one LFR graph over the mem and TCP
//     transports in both exchange modes (bulk vs streaming), with wall
//     clock, final modularity, traffic volume and the measured overlap
//     fraction pulled from the metrics registry;
//   - a storage-variant series: the same fixed-seed R-MAT graph solved with
//     each level-storage backend (hash, frozen CSR, auto). Every variant
//     must land on the identical Q — only the wall clock may differ — and
//     the hash-relative time ratios are summarized in
//     storage_vs_hash_time_ratio;
//   - a shared-memory thread sweep: the same R-MAT graph solved by the plm
//     and plp engines at thread counts 1, 2 and 4 plus the seq-louvain
//     baseline, with plm-vs-sequential wall-clock ratios summarized in
//     thread_sweep_time_ratio (< 1 means plm wins).
//
// The graph seeds and every parameter are pinned, so runs on the same host
// are comparable; absolute times move with hardware, the bulk-vs-stream
// and storage-vs-hash ratios and the overlap fraction are the stable
// signal. Each report carries a host fingerprint (CPU model, core count,
// GOMAXPROCS, Go runtime); -compare warns loudly when the two files come
// from different hosts, since cross-host absolute times are noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parlouvain"
	"parlouvain/internal/buildinfo"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
)

type benchLine struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// hostInfo fingerprints the machine a report was produced on. Absolute
// times from different hosts are not comparable; -compare uses this to warn
// before gating across hardware.
type hostInfo struct {
	CPU        string `json:"cpu,omitempty"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoRuntime  string `json:"go_runtime"`
}

func (h hostInfo) String() string {
	cpu := h.CPU
	if cpu == "" {
		cpu = "unknown CPU"
	}
	return fmt.Sprintf("%s, %d cores, GOMAXPROCS=%d, %s", cpu, h.Cores, h.GOMAXPROCS, h.GoRuntime)
}

// collectHost reads the CPU model from /proc/cpuinfo (best effort; absent on
// non-Linux hosts) and the runtime's view of the core count.
func collectHost() hostInfo {
	h := hostInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoRuntime:  runtime.Version(),
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(buf), "\n") {
			if name, ok := strings.CutPrefix(ln, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

type e2eRun struct {
	Transport string `json:"transport"`
	Mode      string `json:"mode"`
	// Algo marks the shared-memory thread-sweep series (plm, plp,
	// seq-louvain through the algo registry); empty on the distributed runs
	// so older reports keep their compare keys.
	Algo    string `json:"algo,omitempty"`
	Ranks   int    `json:"ranks"`
	Threads int    `json:"threads"`
	// Storage identifies the storage-variant series; it is empty on the LFR
	// transport runs so older reports keep their compare keys. Prune is only
	// ever read: reports written while the engine had a -prune option carry
	// pruned rows, which must keep a compare key of their own.
	Storage     string  `json:"storage,omitempty"`
	Prune       bool    `json:"prune,omitempty"`
	Seconds     float64 `json:"seconds"`
	Q           float64 `json:"q"`
	Levels      int     `json:"levels"`
	BytesSent   uint64  `json:"bytes_sent"`
	Rounds      uint64  `json:"rounds"`
	OverlapFrac float64 `json:"overlap_frac,omitempty"`
}

type report struct {
	GoVersion  string      `json:"go_version"`
	Revision   string      `json:"revision,omitempty"`
	Host       hostInfo    `json:"host"`
	Graph      string      `json:"graph"`
	Benchmarks []benchLine `json:"benchmarks"`
	E2E        []e2eRun    `json:"e2e"`
	// Summary ratios derived from the e2e table: stream seconds / bulk
	// seconds per transport (lower is better).
	StreamSpeedup map[string]float64 `json:"stream_vs_bulk_time_ratio"`
	// Storage-variant seconds / hash-baseline seconds on the R-MAT solve
	// (lower is better), keyed by "csr", "auto"
	StorageSpeedup map[string]float64 `json:"storage_vs_hash_time_ratio,omitempty"`
	// Thread-sweep seconds / seq-louvain seconds on the same R-MAT solve
	// (lower is better), keyed by "plm/t1", "plp/t4", ...
	ThreadSpeedup map[string]float64 `json:"thread_sweep_time_ratio,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	tol := defaultTolerances()
	var (
		out        = flag.String("out", "BENCH_PR10.json", "output JSON path")
		benchTime  = flag.String("benchtime", "200x", "-benchtime passed to go test")
		n          = flag.Int("n", 20000, "e2e LFR graph size")
		mu         = flag.Float64("mu", 0.3, "e2e LFR mixing parameter")
		seed       = flag.Uint64("seed", 11, "e2e LFR seed")
		rmatScale  = flag.Int("rmat-scale", 13, "storage-variant series R-MAT scale (2^scale vertices)")
		rmatSeed   = flag.Uint64("rmat-seed", 5, "storage-variant series R-MAT seed")
		ranks      = flag.Int("ranks", 2, "e2e rank count")
		threads    = flag.Int("threads", 2, "e2e threads per rank")
		skipBench  = flag.Bool("skip-bench", false, "skip the go test -bench pass (e2e only)")
		compare    = flag.Bool("compare", false, "compare two report files (old new) instead of benchmarking; exit 1 on regression")
		tolNs      = flag.Float64("tol-ns", tol.NsPerOp, "-compare: allowed fractional ns/op increase")
		tolBytes   = flag.Float64("tol-bytes", tol.Bytes, "-compare: allowed fractional B/op and allocs/op increase")
		tolE2E     = flag.Float64("tol-e2e", tol.E2E, "-compare: allowed fractional e2e wall-clock increase")
		tolOverlap = flag.Float64("tol-overlap", tol.Overlap, "-compare: allowed fractional overlap-fraction decrease")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("benchjson"))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [tolerance flags] old.json new.json")
			os.Exit(2)
		}
		tol = tolerances{NsPerOp: *tolNs, Bytes: *tolBytes, E2E: *tolE2E, Overlap: *tolOverlap}
		if err := runCompare(flag.Arg(0), flag.Arg(1), tol); err != nil {
			log.Fatal(err)
		}
		return
	}

	rep := report{
		GoVersion: strings.TrimSpace(goVersion()),
		Revision:  buildinfo.Revision(),
		Host:      collectHost(),
		Graph: fmt.Sprintf("LFR n=%d mu=%.2f seed=%d; RMAT scale=%d seed=%d",
			*n, *mu, *seed, *rmatScale, *rmatSeed),
		StreamSpeedup:  map[string]float64{},
		StorageSpeedup: map[string]float64{},
		ThreadSpeedup:  map[string]float64{},
	}
	log.Printf("host: %s", rep.Host)

	if !*skipBench {
		lines, err := runGoBench(*benchTime)
		if err != nil {
			log.Fatal(err)
		}
		rep.Benchmarks = lines
	}

	el, _, err := parlouvain.LFR(parlouvain.DefaultLFR(*n, *mu, *seed))
	if err != nil {
		log.Fatal(err)
	}
	for _, transport := range []string{"mem", "tcp"} {
		var bulk, stream e2eRun
		for _, mode := range []string{"bulk", "stream"} {
			run, err := runE2EBest(el, *n, *ranks, *threads, transport, mode, "")
			if err != nil {
				log.Fatalf("e2e %s/%s: %v", transport, mode, err)
			}
			log.Printf("e2e %s/%-6s  %.3fs  Q=%.6f  overlap=%.3f", transport, mode, run.Seconds, run.Q, run.OverlapFrac)
			rep.E2E = append(rep.E2E, run)
			if mode == "bulk" {
				bulk = run
			} else {
				stream = run
			}
		}
		if bulk.Q != stream.Q {
			log.Fatalf("%s: bulk and streaming results diverged: Q %v vs %v", transport, bulk.Q, stream.Q)
		}
		if bulk.Seconds > 0 {
			rep.StreamSpeedup[transport] = stream.Seconds / bulk.Seconds
		}
	}

	// Storage-variant series: one fixed-seed R-MAT graph solved with each
	// level-storage backend. Identity is re-checked here end to end (the
	// differential suite is the real harness; this is the perf gate's own
	// sanity line) and the hash-relative wall-clock ratios summarized.
	rel, err := parlouvain.RMAT(parlouvain.DefaultRMAT(*rmatScale, *rmatSeed))
	if err != nil {
		log.Fatal(err)
	}
	rn := 1 << *rmatScale
	var storageBase e2eRun
	for _, storage := range []string{"hash", "csr", "auto"} {
		run, err := runE2EBest(rel, rn, *ranks, *threads, "mem", "bulk", storage)
		if err != nil {
			log.Fatalf("e2e rmat storage=%s: %v", storage, err)
		}
		log.Printf("e2e rmat mem/%-9s  %.3fs  Q=%.6f", storage, run.Seconds, run.Q)
		rep.E2E = append(rep.E2E, run)
		if storage == "hash" {
			storageBase = run
			continue
		}
		if run.Q != storageBase.Q || run.Levels != storageBase.Levels {
			log.Fatalf("storage %s diverged from hash: Q %v vs %v, levels %d vs %d",
				storage, run.Q, storageBase.Q, run.Levels, storageBase.Levels)
		}
		if storageBase.Seconds > 0 {
			rep.StorageSpeedup[storage] = run.Seconds / storageBase.Seconds
		}
	}

	// Shared-memory thread sweep: plm and plp on the same R-MAT graph at
	// 1, 2 and 4 worker threads, gated against the seq-louvain baseline.
	// Ratios < 1 mean the shared-memory engine beats the sequential solve.
	seqRun, err := runAlgo(rel, "seq-louvain", 1)
	if err != nil {
		log.Fatalf("e2e rmat seq-louvain: %v", err)
	}
	log.Printf("e2e rmat %-14s  %.3fs  Q=%.6f", "seq-louvain", seqRun.Seconds, seqRun.Q)
	rep.E2E = append(rep.E2E, seqRun)
	for _, algo := range []string{"plm", "plp"} {
		for _, th := range []int{1, 2, 4} {
			run, err := runAlgo(rel, algo, th)
			if err != nil {
				log.Fatalf("e2e rmat %s t=%d: %v", algo, th, err)
			}
			label := fmt.Sprintf("%s/t%d", algo, th)
			log.Printf("e2e rmat %-14s  %.3fs  Q=%.6f", label, run.Seconds, run.Q)
			rep.E2E = append(rep.E2E, run)
			if seqRun.Seconds > 0 {
				rep.ThreadSpeedup[label] = run.Seconds / seqRun.Seconds
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// runAlgo solves the graph through the algorithm registry — the
// shared-memory thread-sweep series. One in-process rank; the engines under
// test parallelize inside the rank via Threads. These solves are short
// (~0.1s), so a single shot is noise-dominated on a busy host: report the
// fastest of three runs (the results are deterministic, only time varies).
func runAlgo(el parlouvain.EdgeList, algo string, threads int) (e2eRun, error) {
	const attempts = 3
	best := e2eRun{Seconds: math.Inf(1)}
	for i := 0; i < attempts; i++ {
		start := time.Now()
		res, err := parlouvain.DetectAlgo(algo, el, parlouvain.AlgoOptions{
			Ranks:   1,
			Threads: threads,
			Seed:    7,
		})
		if err != nil {
			return e2eRun{}, err
		}
		if sec := time.Since(start).Seconds(); sec < best.Seconds {
			best = e2eRun{
				Transport: "mem",
				Mode:      "bulk",
				Algo:      algo,
				Ranks:     1,
				Threads:   threads,
				Seconds:   sec,
				Q:         res.Q,
				Levels:    len(res.Levels),
			}
		}
	}
	return best, nil
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return string(out)
}

// runGoBench executes the exchange and level-storage benchmarks and parses
// the standard benchmark output format: name, iteration count, then
// (value, unit) pairs. Each suite runs with -count=5 and the per-benchmark
// minimum of every metric is kept — short -benchtime runs are single-shot
// measurements, so the min-of-5 is what filters scheduler noise out of the
// perf gate.
func runGoBench(benchTime string) ([]benchLine, error) {
	suites := []struct{ pattern, pkg string }{
		{"BenchmarkExchangeAllocs|BenchmarkStreamOverlap", "./internal/core"},
		{"BenchmarkStoreSweep|BenchmarkStoreRow|BenchmarkStoreLookup|BenchmarkStoreStats|BenchmarkFreezeCSR",
			"./internal/edgetable"},
	}
	byName := map[string]*benchLine{}
	var lines []*benchLine
	for _, s := range suites {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.pattern, "-benchmem", "-benchtime", benchTime, "-count", "5", s.pkg)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %w", s.pkg, err)
		}
		for _, ln := range strings.Split(string(out), "\n") {
			if !strings.HasPrefix(ln, "Benchmark") {
				continue
			}
			fields := strings.Fields(ln)
			if len(fields) < 4 {
				continue
			}
			iters, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue
			}
			bl := benchLine{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				if fields[i+1] == "ns/op" {
					bl.NsPerOp = v
				} else {
					bl.Metrics[fields[i+1]] = v
				}
			}
			prev, ok := byName[bl.Name]
			if !ok {
				byName[bl.Name] = &bl
				lines = append(lines, &bl)
				continue
			}
			if bl.NsPerOp < prev.NsPerOp {
				prev.NsPerOp, prev.Iters = bl.NsPerOp, bl.Iters
			}
			for k, v := range bl.Metrics {
				if old, ok := prev.Metrics[k]; !ok || v < old {
					prev.Metrics[k] = v
				}
			}
		}
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed")
	}
	out := make([]benchLine, len(lines))
	for i, bl := range lines {
		out[i] = *bl
	}
	return out, nil
}

// runE2EBest repeats runE2E and keeps, per metric, the least
// noise-contaminated measurement: the minimum wall clock (the solves are
// deterministic — only time varies) and the maximum overlap fraction (how
// much transfer the builders managed to hide is a capability, and scheduler
// preemption only ever pushes it down).
func runE2EBest(el parlouvain.EdgeList, n, ranks, threads int, transport, mode, storage string) (e2eRun, error) {
	const attempts = 3
	best := e2eRun{Seconds: math.Inf(1)}
	var overlap float64
	for i := 0; i < attempts; i++ {
		run, err := runE2E(el, n, ranks, threads, transport, mode, storage)
		if err != nil {
			return e2eRun{}, err
		}
		overlap = math.Max(overlap, run.OverlapFrac)
		if run.Seconds < best.Seconds {
			best = run
		}
	}
	best.OverlapFrac = overlap
	return best, nil
}

// runE2E solves the graph once over the requested transport, exchange mode
// and level-storage variant, pulling traffic and overlap measurements from
// per-rank registries. An empty storage string means the library default
// (auto) and leaves the run's storage fields unset, preserving the compare
// keys of reports written before the storage series existed.
func runE2E(el parlouvain.EdgeList, n, ranks, threads int, transport, mode, storage string) (e2eRun, error) {
	storageKind, err := parlouvain.ParseStorage(storage)
	if err != nil {
		return e2eRun{}, err
	}
	// Explicit modes on both sides: 0 now auto-selects per transport, which
	// would silently collapse the small-mem "stream" row into a bulk run.
	streamChunk := parlouvain.DefaultStreamChunk
	if mode == "bulk" {
		streamChunk = -1
	}
	regs := make([]*parlouvain.MetricsRegistry, ranks)
	for r := range regs {
		regs[r] = parlouvain.NewMetricsRegistry()
	}
	results := make([]*parlouvain.Result, ranks)
	parts := parlouvain.SplitEdges(el, ranks)

	start := time.Now()
	var g par.Group
	switch transport {
	case "mem":
		trs := parlouvain.NewMemGroup(ranks)
		// Close only after every rank returns: the in-process transports
		// share one hub, so an early Close would fail the peers' rounds.
		defer func() {
			for _, tr := range trs {
				tr.Close()
			}
		}()
		for r := 0; r < ranks; r++ {
			r := r
			g.Go(func() error {
				res, err := parlouvain.DetectDistributed(trs[r], parts[r], n, parlouvain.Options{
					Threads: threads, StreamChunk: streamChunk,
					Storage: storageKind, Metrics: regs[r],
				})
				results[r] = res
				return err
			})
		}
	case "tcp":
		addrs, err := parlouvain.LocalAddrs(ranks)
		if err != nil {
			return e2eRun{}, err
		}
		for r := 0; r < ranks; r++ {
			r := r
			g.Go(func() error {
				tr, err := parlouvain.NewTCPTransport(parlouvain.TCPConfig{Rank: r, Addrs: addrs})
				if err != nil {
					return err
				}
				defer tr.Close()
				res, err := parlouvain.DetectDistributed(tr, parts[r], n, parlouvain.Options{
					Threads: threads, StreamChunk: streamChunk,
					Storage: storageKind, Metrics: regs[r],
				})
				results[r] = res
				return err
			})
		}
	default:
		return e2eRun{}, fmt.Errorf("unknown transport %q", transport)
	}
	if err := g.Wait(); err != nil {
		return e2eRun{}, err
	}
	elapsed := time.Since(start)

	run := e2eRun{
		Transport: transport,
		Mode:      mode,
		Ranks:     ranks,
		Threads:   threads,
		Storage:   storage,
		Seconds:   elapsed.Seconds(),
		Q:         results[0].Q,
		Levels:    len(results[0].Levels),
	}
	var overlap, transfer float64
	for _, reg := range regs {
		run.BytesSent += reg.Counter("comm_bytes_sent_total").Value()
		run.Rounds += reg.Counter("comm_rounds_total").Value()
		overlap += reg.Histogram("comm_overlap_seconds", obs.LatencyBuckets).Snapshot().Sum
		transfer += reg.Histogram("comm_stream_transfer_seconds", obs.LatencyBuckets).Snapshot().Sum
	}
	if transfer > 0 {
		run.OverlapFrac = overlap / transfer
	}
	return run, nil
}
