package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"parlouvain"
	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/edgetable"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
	"parlouvain/internal/wire"
)

// sink keeps the compiler from dropping a rung's loop.
var sink float64

// traceGraph is the traced run of a graph workload: one input, solved
// without spans, with spans and with the program's own telemetry on, then
// the ladder rungs on the same input. It also gives serve-mix its ladder, on
// the graph of its largest job class.
func (w *workload) traceGraph(out *outcome, cfg config, tr *tracer, root ref) error {
	w = w.at(cfg.smoke)
	sp := tr.start(root, "setup", 0)
	in, err := w.setup(instanceSeed(cfg.seed, 0), tr, sp)
	sp.end()
	if err != nil {
		return err
	}
	defer in.close()

	solve := func(opt parlouvain.AlgoOptions, t *tracer) (*parlouvain.AlgoResult, float64, error) {
		res, wall, _, err := w.timedSolve(in, opt, t, root)
		out.Attempted++
		return res, wall, err
	}

	// The first solve of a fresh input also pages the heap in; its time is
	// not compared with anything.
	warm, _, err := solve(parlouvain.AlgoOptions{}, nil)
	if err != nil {
		out.fail("first solve: " + err.Error())
		return nil
	}
	plain, plainS, err := solve(parlouvain.AlgoOptions{}, nil)
	if err != nil {
		out.fail("untraced solve: " + err.Error())
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, tracedS, err := solve(parlouvain.AlgoOptions{}, tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		out.fail("traced solve: " + err.Error())
		return nil
	}
	for _, other := range []*parlouvain.AlgoResult{plain, res} {
		if other.Q != warm.Q || other.CommBytes != warm.CommBytes || other.CommRounds != warm.CommRounds {
			out.fail(fmt.Sprintf("two solves of one input differ: Q %v/%v, bytes %d/%d, rounds %d/%d",
				warm.Q, other.Q, warm.CommBytes, other.CommBytes, warm.CommRounds, other.CommRounds))
		}
	}
	out.set("trace_overhead_frac", tracedS/plainS, 1)
	_, obsS, err := solve(parlouvain.AlgoOptions{Recorder: obs.NewRecorder(), Metrics: obs.NewRegistry()}, nil)
	if err != nil {
		out.fail("solve with telemetry: " + err.Error())
		return nil
	}
	out.set("obs.overhead_frac", obsS/plainS, 1)

	const mib = 1 << 20
	out.set("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/mib, 1)
	out.set("core.mallocs", float64(after.Mallocs-before.Mallocs), 1)
	out.set("core.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	out.set("core.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, 1)

	out.set("gen.generate_s", in.genS, 1)
	out.set("graph.build_s", in.buildS, 1)
	resultRungs(out, res)
	return w.rungs(out, tr, root, in, res, plainS)
}

// resultRungs copies the layer figures the program itself returns.
func resultRungs(out *outcome, res *parlouvain.AlgoResult) {
	phase := func(name string) float64 {
		if res.Breakdown == nil {
			return 0
		}
		return res.Breakdown.Get(name).Seconds()
	}
	out.set("core.refine_s", phase(perf.PhaseRefine), 1)
	out.set("core.propagate_s", phase(perf.PhasePropagation), 1)
	out.set("core.findbest_s", phase(perf.PhaseFindBest), 1)
	out.set("core.update_s", phase(perf.PhaseUpdate), 1)
	out.set("core.reconstruct_s", phase(perf.PhaseReconstruction), 1)
	out.set("core.first_level_s", res.FirstLevel.Seconds(), 1)
	out.set("core.levels", float64(len(res.Levels)), 1)
	iters := 0
	for _, lv := range res.Levels {
		iters += lv.Iterations
	}
	out.set("core.inner_iters", float64(iters), 1)

	out.set("comm.wire_mb", float64(res.CommBytes)/1e6, 1)
	out.set("comm.rounds", float64(res.CommRounds), 1)
	perRound := 0.0
	if res.CommRounds > 0 {
		perRound = float64(res.CommBytes) / float64(res.CommRounds)
	}
	out.set("comm.bytes_per_round", perRound, 1)
}

// rungs times each layer's exported functions on the workload's own input.
// solveS is the untraced solve they are compared with.
func (w *workload) rungs(out *outcome, tr *tracer, root ref, in *instance, res *parlouvain.AlgoResult, solveS float64) error {
	rung := func(name string, fn func()) float64 {
		sp := tr.start(root, name, 0)
		t := time.Now()
		fn()
		d := since(t)
		sp.end()
		return d
	}
	n, el, g := in.g.N, in.el, in.g

	// graph
	parts := in.parts
	split := in.splitS
	if parts == nil {
		split = rung("graph.split", func() { parts = graph.SplitEdges(el, 2) })
	}
	out.set("graph.split_s", split, 1)
	var text bytes.Buffer
	if err := graph.WriteText(&text, el[:min(len(el), 200_000)]); err != nil {
		return err
	}
	var readErr error
	d := rung("graph.read_text", func() { _, readErr = graph.ReadText(bytes.NewReader(text.Bytes())) })
	if readErr != nil {
		return readErr
	}
	out.set("graph.read_text_mb_s", float64(text.Len())/1e6/d, 1)

	// wire
	triples := el[:min(len(el), 1<<20)]
	buf := wire.GetBuffer()
	d = rung("wire.encode_triple", func() {
		for _, e := range triples {
			buf.PutTriple(wire.Triple{A: e.U, B: e.V, W: e.W})
		}
	})
	out.set("wire.encode_triple_ns", d*1e9/float64(len(triples)), len(triples))
	out.set("wire.bytes_per_triple", float64(buf.Len())/float64(len(triples)), len(triples))
	d = rung("wire.decode_triple", func() {
		for r := wire.NewReader(buf.Bytes()); r.More(); {
			sink += r.Triple().W
		}
	})
	out.set("wire.decode_triple_ns", d*1e9/float64(len(triples)), len(triples))
	buf.Reset()
	d = rung("wire.encode_assign", func() { buf.PutAssign(res.Assignment) })
	out.set("wire.encode_assign_ns", d*1e9/float64(n), n)
	d = rung("wire.decode_assign", func() { sink += float64(len(wire.NewReader(buf.Bytes()).Assign(nil))) })
	out.set("wire.decode_assign_ns", d*1e9/float64(n), n)
	wire.PutBuffer(buf)

	// comm: one round at the workload's mean plane size between 2 ranks
	plane := 64 << 10
	if res.CommRounds > 0 {
		plane = int(res.CommBytes/res.CommRounds) / (w.Ranks * w.Ranks)
	}
	plane = max(64, min(plane, 4<<20))
	rounds := max(20, min(500, (64<<20)/plane))
	exchange := func(name string, trs []comm.Transport) error {
		defer func() {
			for _, t := range trs {
				t.Close()
			}
		}()
		var err error
		d := rung(name, func() { err = exchangeRounds(trs, plane, rounds) })
		out.set(name+"_us", d*1e6/float64(rounds), rounds)
		return err
	}
	if err := exchange("comm.exchange_mem", comm.NewMemGroup(2)); err != nil {
		return err
	}
	tcp, err := tcpGroup(2)
	if err != nil {
		return err
	}
	if err := exchange("comm.exchange_tcp", tcp); err != nil {
		return err
	}
	const reduces = 500
	mem := comm.NewMemGroup(2)
	var redErr error
	d = rung("comm.allreduce", func() {
		redErr = onRanks(mem, func(c *comm.Comm) error {
			for i := 0; i < reduces; i++ {
				if _, err := c.AllReduceFloat64(1, comm.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
	})
	for _, t := range mem {
		t.Close()
	}
	if redErr != nil {
		return redErr
	}
	out.set("comm.allreduce_us", d*1e6/reduces, reduces)

	// edgetable: rank 0's level-0 In_Table, grown from the engine's start
	// capacity at the default load factor of 1/4
	part := graph.Partition{Rank: 0, Size: 2}
	local := parts[0]
	tab := edgetable.New(edgetable.Config{Capacity: 1024})
	d = rung("edgetable.insert", func() {
		for _, e := range local {
			wt := e.W
			if e.U == e.V {
				wt *= 2
			}
			tab.AddPair(e.U, e.V, wt)
		}
	})
	out.set("edgetable.insert_ns", d*1e9/float64(len(local)), len(local))
	entries := float64(tab.Len())
	d = rung("edgetable.sweep", func() {
		tab.Range(func(_ uint64, wt float64) bool { sink += wt; return true })
	})
	out.set("edgetable.sweep_ns", d*1e9/entries, tab.Len())
	d = rung("edgetable.lookup", func() {
		for _, e := range local {
			wt, _ := tab.GetPair(e.U, e.V)
			sink += wt
		}
	})
	out.set("edgetable.lookup_ns", d*1e9/float64(len(local)), len(local))
	var csr *edgetable.CSR
	d = rung("edgetable.freeze", func() { csr = edgetable.FreezeCSR(part, part.LocalCount(n), tab) })
	out.set("edgetable.freeze_ns", d*1e9/entries, tab.Len())
	d = rung("edgetable.csr_sweep", func() {
		csr.Range(func(_ uint64, wt float64) bool { sink += wt; return true })
	})
	out.set("edgetable.csr_sweep_ns", d*1e9/entries, tab.Len())
	out.set("edgetable.probe_len", tab.Stats().MeanProbe, tab.Len())
	out.set("edgetable.table_mb", float64(tab.Slots())*16/(1<<20), 1) // computed: 8 B key + 8 B weight per slot

	// movesched: the schedule plm builds for level 0 at its defaults
	var order []uint32
	d = rung("movesched.permutation", func() { order = movesched.Permutation(n, movesched.OrderDefault, g.Deg, 0) })
	out.set("movesched.permutation_s", d, 1)
	var coloring movesched.Coloring
	d = rung("movesched.coloring", func() {
		coloring = movesched.Greedy(n, order, func(u uint32, emit func(v uint32)) {
			g.Neighbors(graph.V(u), func(v graph.V, _ float64) bool { emit(uint32(v)); return true })
		})
	})
	out.set("movesched.coloring_s", d, 1)
	out.set("movesched.colors", float64(coloring.NumColors()), 1)

	// par
	const forks = 2000
	d = rung("par.for", func() {
		for i := 0; i < forks; i++ {
			par.For(1024, 2, func(_, _, _ int) {})
		}
	})
	out.set("par.for_overhead_us", d*1e6/forks, forks)

	// metrics
	d = rung("metrics.modularity", func() { sink += metrics.Modularity(g, res.Assignment) })
	out.set("metrics.modularity_s", d, 1)

	// core: each engine called directly on the same graph
	seqS := rung("core.sequential", func() { core.Sequential(g, core.Options{}) })
	plm1S := rung("core.plm_t1", func() { core.PLM(g, core.Options{Threads: 1}) })
	plm2S := rung("core.plm_t2", func() { core.PLM(g, core.Options{Threads: 2}) })
	var parErr error
	par1S := rung("core.par_r1", func() { _, parErr = core.RunInProcess(el, n, 1, core.Options{}) })
	if parErr != nil {
		return parErr
	}
	out.set("core.sequential_s", seqS, 1)
	out.set("core.plm_t1_s", plm1S, 1)
	out.set("core.par_r1_s", par1S, 1)
	out.set("core.par_vs_seq", solveS/seqS, 1)
	out.set("core.plm_speedup_t2", plm1S/plm2S, 1)

	// algo: what the registry driver adds around the engine it calls
	algoS := solveS
	if w.TCP { // the timed solve bypassed algo.Run; time it over mem
		var err error
		algoS = rung("algo.run_mem", func() {
			_, err = parlouvain.DetectAlgo(w.Algo, el, parlouvain.AlgoOptions{Ranks: w.Ranks, Threads: w.Threads})
		})
		if err != nil {
			return err
		}
	}
	direct := seqS
	switch w.Algo {
	case "plm":
		direct = plm2S
	case "par-louvain":
		direct = rung("core.par_direct", func() {
			_, parErr = core.RunInProcess(el, n, w.Ranks, core.Options{Threads: w.Threads, CollectLevels: true})
		})
		if parErr != nil {
			return parErr
		}
	}
	out.set("algo.overhead_s", algoS-direct, 1)
	return nil
}

// onRanks runs fn once per rank of the group, each on its own goroutine.
func onRanks(trs []comm.Transport, fn func(c *comm.Comm) error) error {
	var g par.Group
	for _, tr := range trs {
		tr := tr
		g.Go(func() error { return fn(comm.New(tr)) })
	}
	return g.Wait()
}

// exchangeRounds has every rank send one plane of the given size to every
// rank, rounds times.
func exchangeRounds(trs []comm.Transport, plane, rounds int) error {
	return onRanks(trs, func(c *comm.Comm) error {
		send := make([][]byte, c.Size())
		for i := range send {
			send[i] = make([]byte, plane)
		}
		for i := 0; i < rounds; i++ {
			in, err := c.Exchange(send)
			if err != nil {
				return err
			}
			wire.ReleasePlanes(in)
		}
		return nil
	})
}
