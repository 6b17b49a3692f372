// Command louvaind runs one rank of a distributed detection as its own OS
// process over the TCP transport — the multi-machine deployment mode that
// replaces the paper's MPI job launch.
//
// Every rank is started with the same -addrs list and its own -rank; each
// loads the full graph file and keeps only its partition (for truly large
// graphs, pre-split inputs per rank with -local).
//
// Example (3 ranks on one machine):
//
//	louvaind -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -graph g.bin &
//	louvaind -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -graph g.bin &
//	louvaind -rank 2 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -graph g.bin -out comms.txt
//
// Observability: -debug-addr starts an HTTP server with /metrics
// (Prometheus text exposition), /healthz (rank id, build revision, mesh
// state, current level/iteration/modularity), /debug/vars (expvar) and
// /debug/pprof; -trace and -chrome-trace record telemetry streams to disk.
//
// Unless disabled with -agg-interval 0, every rank additionally publishes
// its metrics and events to rank 0 over the transport's out-of-band
// telemetry channel. Rank 0's debug server then also exposes the
// cluster-wide view:
//
//	/metrics/cluster   per-rank series (rank="N" labels) plus min/max/sum
//	                   rollups and per-phase imbalance gauges
//	/events            live cluster event stream (Server-Sent Events)
//	/events.jsonl      the same stream as newline-delimited JSON
//
// and rank 0's -trace/-chrome-trace/-report outputs cover the merged
// cross-rank timeline (one track per rank in the Chrome trace) instead of
// just the local rank.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"parlouvain"
	"parlouvain/internal/buildinfo"
	"parlouvain/internal/comm"
	"parlouvain/internal/obs"
	"parlouvain/internal/obs/agg"
)

// finalsGrace bounds how long rank 0 waits after its own run for the other
// ranks' final telemetry batches before writing merged outputs.
const finalsGrace = 3 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("louvaind: ")
	var (
		rank      = flag.Int("rank", -1, "this process's rank (0-based, required)")
		addrs     = flag.String("addrs", "", "comma-separated listen addresses of all ranks, in rank order (required)")
		graphF    = flag.String("graph", "", "graph file shared by all ranks (each keeps its partition)")
		localF    = flag.String("local", "", "pre-split local edge file for this rank (alternative to -graph)")
		nFlag     = flag.Int("n", 0, "global vertex count (required with -local; inferred with -graph)")
		threads   = flag.Int("threads", 0, "worker threads in this rank; 0 auto-selects the usable CPU count")
		order     = flag.String("order", "default", "move-sweep vertex order: default | natural | shuffle | degree-asc | degree-desc (must match across ranks)")
		naive     = flag.Bool("naive", false, "disable the convergence heuristic")
		algoName  = flag.String("algo", "louvain", "detection algorithm (must match across ranks); see louvain -list-algos")
		seed      = flag.Uint64("seed", 0, "randomize sweep orders and tie-breaking (must match across ranks)")
		outPath   = flag.String("out", "", "write the final assignment (any rank may do this; all agree)")
		timeout   = flag.Duration("dial-timeout", 60*time.Second, "mesh establishment timeout")
		roundTO   = flag.Duration("round-timeout", 0, "per-round exchange deadline; a stalled peer fails the round instead of hanging it (0 = none)")
		check     = flag.Bool("check", false, "verify algorithm invariants after every level (mass conservation, rank agreement, Q monotonicity)")
		traceF    = flag.String("trace", "", "write telemetry events to this file as JSONL (merged across ranks on rank 0)")
		chromeF   = flag.String("chrome-trace", "", "write a Chrome trace_event JSON timeline to this file (merged across ranks on rank 0)")
		report    = flag.Bool("report", false, "print a per-phase run report to stdout after the run (cluster-wide on rank 0)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, expvar and pprof on this address (e.g. :9090); rank 0 adds /metrics/cluster, /events and /events.jsonl")
		aggEvery  = flag.Duration("agg-interval", agg.DefaultInterval, "how often to publish telemetry to rank 0 over the out-of-band channel (0 disables aggregation)")
		serveMode = flag.Bool("serve", false, "run as a job service on -debug-addr instead of one batch detection (POST /jobs, see README \"Service mode\")")
		serveWk   = flag.Int("serve-workers", 2, "job-service worker pool size (with -serve)")
		serveQD   = flag.Int("serve-queue", 16, "job-service queue depth; submissions beyond it get 429 (with -serve)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "job-service drain grace after SIGINT/SIGTERM before running jobs' contexts are cancelled (with -serve)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("louvaind"))
		return
	}
	if *serveMode {
		if *debugAddr == "" {
			fmt.Fprintln(os.Stderr, "usage: louvaind -serve -debug-addr ADDR [-serve-workers N] [-serve-queue D]")
			os.Exit(2)
		}
		os.Exit(runServe(*debugAddr, *serveWk, *serveQD, *drainTO))
	}
	addrList := strings.Split(*addrs, ",")
	if *rank < 0 || *addrs == "" || *rank >= len(addrList) {
		fmt.Fprintln(os.Stderr, "usage: louvaind -rank R -addrs a0,a1,... (-graph FILE | -local FILE -n N) [flags]")
		os.Exit(2)
	}
	aggOn := *aggEvery > 0

	// Telemetry: the registry always exists when a debug server is requested;
	// the recorder exists whenever something consumes events — a trace output,
	// the run report, or the aggregation plane streaming them to rank 0.
	reg := parlouvain.NewMetricsRegistry()
	var rec *parlouvain.Recorder
	if *traceF != "" || *chromeF != "" || *report || aggOn {
		rec = parlouvain.NewRecorder()
	}
	// Rank 0's collector outlives the transport: it is created before the
	// debug server (so the cluster endpoints exist from the first request)
	// and fed once the mesh is up.
	var col *agg.Collector
	if *rank == 0 && aggOn {
		col = agg.NewCollector()
	}
	var meshState atomic.Value // "loading" -> "connecting" -> "running" -> "done"/"failed"
	meshState.Store("loading")
	if *debugAddr != "" {
		gLevel := reg.Gauge("louvain_level")
		gIter := reg.Gauge("louvain_iteration")
		gQ := reg.Gauge("louvain_modularity")
		mux := obs.NewDebugMux(reg, func() any {
			return map[string]any{
				"rank":      *rank,
				"size":      len(addrList),
				"revision":  buildinfo.Revision(),
				"mesh":      meshState.Load(),
				"level":     int(gLevel.Value()),
				"iteration": int(gIter.Value()),
				"q":         gQ.Value(),
			}
		})
		if col != nil {
			col.Attach(mux)
		}
		srv, err := obs.Serve(*debugAddr, mux)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		extra := ""
		if col != nil {
			extra = " /metrics/cluster /events"
		}
		log.Printf("rank %d: debug endpoints on http://%s (/metrics /healthz /debug/pprof/%s)", *rank, srv.Addr, extra)
	}

	var local parlouvain.EdgeList
	n := *nFlag
	switch {
	case *graphF != "":
		el, err := parlouvain.LoadGraph(*graphF)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			n = el.NumVertices()
		}
		local = parlouvain.SplitEdges(el, len(addrList))[*rank]
	case *localF != "":
		if n <= 0 {
			log.Fatal("-local requires -n (global vertex count)")
		}
		el, err := parlouvain.LoadGraph(*localF)
		if err != nil {
			log.Fatal(err)
		}
		local = el
	default:
		log.Fatal("one of -graph or -local is required")
	}

	meshState.Store("connecting")
	tr, err := parlouvain.NewTCPTransport(parlouvain.TCPConfig{
		Rank:         *rank,
		Addrs:        addrList,
		DialTimeout:  *timeout,
		RoundTimeout: *roundTO,
	})
	if err != nil {
		meshState.Store("failed")
		log.Fatal(err)
	}
	defer tr.Close()

	// Aggregation plane: every rank publishes over the out-of-band channel;
	// rank 0 additionally drains it into the collector.
	var pub *agg.Publisher
	if aggOn {
		conn, err := comm.New(tr).OpenTelemetry()
		if err != nil {
			log.Printf("rank %d: telemetry aggregation unavailable: %v", *rank, err)
			col = nil
		} else {
			if col != nil {
				go col.Run(conn)
			}
			pub = agg.NewPublisher(conn, *rank, reg, rec, *aggEvery)
			pub.Start()
		}
	}

	meshState.Store("running")
	ordering, err := parlouvain.ParseOrdering(*order)
	if err != nil {
		meshState.Store("failed")
		log.Fatal(err)
	}
	// Graceful drain: SIGINT/SIGTERM cancels the detection context — the
	// engine stops at its next level/iteration check point — and the rank
	// still flushes telemetry and writes its trace outputs before exiting.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	resolvedThreads := parlouvain.ResolveThreads(*threads)
	if *threads <= 0 {
		log.Printf("threads: auto-selected %d", resolvedThreads)
	}
	res, err := parlouvain.DetectAlgoDistributedContext(ctx, *algoName, tr, local, n, parlouvain.AlgoOptions{
		Threads:         resolvedThreads,
		Order:           ordering,
		Naive:           *naive,
		Seed:            *seed,
		CheckInvariants: *check,
		Recorder:        rec,
		Metrics:         reg,
	})
	canceled := err != nil && ctx.Err() != nil
	if err != nil && !canceled {
		meshState.Store("failed")
		log.Fatal(err)
	}
	if canceled {
		stopSignals() // a second signal now kills immediately
		meshState.Store("canceled")
		log.Printf("rank %d: detection canceled by signal; draining telemetry", *rank)
	} else {
		meshState.Store("done")
		fmt.Printf("rank %d: %s Q=%.6f levels=%d time=%v (first level %v)\n",
			*rank, res.Algo, res.Q, len(res.Levels), res.Duration.Round(time.Millisecond), res.FirstLevel.Round(time.Millisecond))
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := parlouvain.WritePartition(f, res.Assignment); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Flush the final telemetry batch, then pick the event stream the
	// output flags consume: rank 0 prefers the merged cluster feed, waiting
	// briefly for the other ranks' final batches; everyone else (and rank 0
	// without aggregation) uses the local recorder.
	if pub != nil {
		if err := pub.Close(); err != nil {
			log.Printf("rank %d: telemetry final flush: %v", *rank, err)
		}
		if n := pub.SendFailures(); n > 0 {
			log.Printf("rank %d: %d telemetry batches dropped", *rank, n)
		}
	}
	var events []obs.Event
	if col != nil {
		deadline := time.Now().Add(finalsGrace)
		for len(col.Stats().Finals) < len(addrList) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if st := col.Stats(); len(st.Finals) < len(addrList) {
			log.Printf("rank 0: merged outputs cover %d/%d ranks (finals %v, lost %d)",
				len(st.Finals), len(addrList), st.Finals, st.Lost)
		}
		events = col.Events()
	}
	if len(events) == 0 && rec != nil {
		events = rec.Events()
	}
	if *traceF != "" || *chromeF != "" {
		if err := obs.DumpFiles(*traceF, *chromeF, events); err != nil {
			log.Fatal(err)
		}
	}
	if *report {
		if err := obs.WriteRunReport(os.Stdout, events); err != nil {
			log.Fatal(err)
		}
	}
}
