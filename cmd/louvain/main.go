// Command louvain runs community detection on an edge-list file or a
// generator spec and prints the per-level hierarchy, final modularity,
// timings and (optionally) the vertex→community assignment.
//
// Every algorithm in the registry (see -list-algos) runs through the same
// path: -ranks in-process compute ranks over -transport, with -check,
// -trace, -report and -metrics-out working uniformly.
//
// Usage:
//
//	louvain [flags] <graph-file>
//	louvain [flags] -gen 'lfr:n=10000,mu=0.3'
//
// Examples:
//
//	louvain -ranks 8 -threads 4 graph.txt
//	louvain -seq -out communities.txt graph.bin
//	louvain -algo leiden -gen 'lfr:n=10000,mu=0.4'
//	louvain -algo lpa -ranks 4 -check -gen 'rmat:scale=16'
//	louvain -naive -ranks 8 -gen 'bter:n=20000,rho=0.55'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"parlouvain"
	"parlouvain/internal/buildinfo"
	"parlouvain/internal/gencli"
	"parlouvain/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("louvain: ")
	var (
		ranks     = flag.Int("ranks", 1, "number of simulated compute ranks")
		threads   = flag.Int("threads", 0, "worker threads per rank (par-louvain, plm, plp); 0 auto-selects the usable CPU count")
		order     = flag.String("order", "default", "move-sweep vertex order: default | natural | shuffle | degree-asc | degree-desc (whole-graph engines)")
		seq       = flag.Bool("seq", false, "shorthand for -algo seq-louvain (sequential baseline)")
		naive     = flag.Bool("naive", false, "disable the convergence heuristic (par-louvain only)")
		maxLevels = flag.Int("max-levels", 0, "cap on outer iterations (0 = default)")
		maxInner  = flag.Int("max-inner", 0, "cap on inner iterations per level, or sweeps for lpa (0 = default)")
		runs      = flag.Int("runs", 0, "ensemble size for -algo ensemble (0 = default)")
		seed      = flag.Uint64("seed", 0, "randomize sweep orders and tie-breaking (0 = natural order)")
		genSpec   = flag.String("gen", "", "generate the input instead of reading a file, e.g. 'lfr:n=10000,mu=0.3' (see cmd/gengraph)")
		outPath   = flag.String("out", "", "write the final vertex-community assignment to this file")
		breakdown = flag.Bool("breakdown", false, "print the per-phase timing breakdown (Louvain family)")
		stats     = flag.Bool("stats", false, "print graph statistics and partition quality (coverage, conductance)")
		warmPath  = flag.String("warm", "", "warm-start from a previous assignment file (dynamic re-detection)")
		algoName  = flag.String("algo", "louvain", "detection algorithm; see -list-algos for the registry")
		listAlgos = flag.Bool("list-algos", false, "list the registered detection algorithms and exit")
		transport = flag.String("transport", "mem", "in-process transport: mem | sim (BSP cost model) | chaos (fault injection)")
		refine    = flag.Bool("refine", false, "split internally disconnected communities afterwards (Leiden-style post-pass)")
		check     = flag.Bool("check", false, "verify algorithm invariants (assignment shape, rank agreement, recomputed modularity, Q monotonicity; any engine)")
		traceF    = flag.String("trace", "", "write telemetry events to this file as JSONL (any engine)")
		chromeF   = flag.String("chrome-trace", "", "write a Chrome trace_event JSON timeline to this file (load in chrome://tracing or Perfetto)")
		report    = flag.Bool("report", false, "print a per-phase run report (time share, imbalance, wire traffic) after the run")
		metricsF  = flag.String("metrics-out", "", "write a final Prometheus text-format metrics snapshot to this file")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("louvain"))
		return
	}
	if *listAlgos {
		for _, info := range parlouvain.Algorithms() {
			fmt.Printf("%-12s %s\n", info.Name, info.Description)
		}
		return
	}

	var el parlouvain.EdgeList
	var err error
	switch {
	case *genSpec != "":
		el, _, err = gencli.Generate(*genSpec)
	case flag.NArg() == 1:
		el, err = parlouvain.LoadGraph(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: louvain [flags] <graph-file> | louvain [flags] -gen <spec>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	ordering, err := parlouvain.ParseOrdering(*order)
	if err != nil {
		log.Fatal(err)
	}
	name := *algoName
	if *seq && name == "louvain" {
		name = "seq-louvain"
	}
	resolvedThreads := parlouvain.ResolveThreads(*threads)
	if *threads <= 0 && resolvedThreads != 1 {
		fmt.Printf("threads: auto-selected %d\n", resolvedThreads)
	}
	opt := parlouvain.AlgoOptions{
		Ranks:           *ranks,
		Transport:       *transport,
		Threads:         resolvedThreads,
		Order:           ordering,
		Naive:           *naive,
		Seed:            *seed,
		MaxLevels:       *maxLevels,
		MaxIter:         *maxInner,
		Runs:            *runs,
		CheckInvariants: *check,
	}
	var rec *parlouvain.Recorder
	if *traceF != "" || *chromeF != "" || *report {
		rec = parlouvain.NewRecorder()
		opt.Recorder = rec
	}
	var reg *parlouvain.MetricsRegistry
	if *metricsF != "" {
		reg = parlouvain.NewMetricsRegistry()
		opt.Metrics = reg
	}
	if *warmPath != "" {
		prev, err := parlouvain.LoadPartition(*warmPath)
		if err != nil {
			log.Fatal(err)
		}
		opt.Warm = parlouvain.ExtendAssignment(prev, el.NumVertices())
	}
	g := parlouvain.BuildGraph(el, 0)

	start := time.Now()
	res, err := parlouvain.DetectAlgo(name, el, opt)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	membership := res.Assignment

	if *refine {
		var splits int
		membership, splits = parlouvain.SplitDisconnected(g, membership)
		fmt.Printf("refinement: split %d disconnected communities\n", splits)
	}

	fmt.Printf("algorithm: %s\n", res.Algo)
	fmt.Printf("vertices: %d  edges: %d\n", g.N, g.NumEdges())
	for i, lv := range res.Levels {
		fmt.Printf("level %d: Q=%.6f  vertices=%d -> communities=%d  inner-iterations=%d\n",
			i, lv.Q, lv.Vertices, lv.Communities, lv.Iterations)
	}
	for _, ex := range []struct{ key, label string }{
		{"core_groups", "core groups"},
		{"sweeps", "sweeps"},
		{"splits", "refinement splits"},
	} {
		if v, ok := res.Extra[ex.key]; ok {
			fmt.Printf("%s: %.0f\n", ex.label, v)
		}
	}
	fmt.Printf("final modularity: %.6f\n", parlouvain.Modularity(g, membership))
	fmt.Printf("communities: %d\n", len(parlouvain.CommunitySizes(membership)))
	if res.FirstLevel > 0 {
		fmt.Printf("time: %v (first level %v)\n", elapsed.Round(time.Millisecond), res.FirstLevel.Round(time.Millisecond))
	} else {
		fmt.Printf("time: %v\n", elapsed.Round(time.Millisecond))
	}
	if res.CommBytes > 0 {
		fmt.Printf("communication: %d bytes in %d rounds\n", res.CommBytes, res.CommRounds)
	}
	if *breakdown && res.Breakdown != nil {
		fmt.Print(res.Breakdown.String())
	}
	if *stats {
		fmt.Println(parlouvain.Summarize(g))
		pq, err := parlouvain.Quality(g, membership)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("coverage:        %.4f\n", pq.Coverage)
		fmt.Printf("conductance:     avg %.4f / max %.4f\n", pq.AvgConductance, pq.MaxConductance)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := parlouvain.WritePartition(f, membership); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("assignment written to %s\n", *outPath)
	}
	if rec != nil {
		if err := rec.DumpFiles(*traceF, *chromeF); err != nil {
			log.Fatal(err)
		}
		if *traceF != "" {
			fmt.Printf("telemetry events written to %s (%d events)\n", *traceF, rec.Len())
		}
		if *chromeF != "" {
			fmt.Printf("chrome trace written to %s\n", *chromeF)
		}
		if *report {
			if err := obs.WriteRunReport(os.Stdout, rec.Events()); err != nil {
				log.Fatal(err)
			}
		}
	}
	if reg != nil {
		f, err := os.Create(*metricsF)
		if err != nil {
			log.Fatal(err)
		}
		reg.WritePrometheus(f)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsF)
	}
}
