package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"parlouvain"
	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/par"
)

// workload is one named set of inputs. The four graph workloads fill the
// engine fields; serve-mix leaves them empty and runs through runServe.
type workload struct {
	Name string
	Why  string

	Algo    string
	Ranks   int
	Threads int
	TCP     bool // ranks meet over loopback TCP, as louvaind processes would
	// Inputs is how many graphs a run solves; fixed, so that every run's
	// figures are over the same number of graphs.
	Inputs int
	// Gen makes one input: the edge list and, where the family plants
	// communities, the truth. Size is its size argument at full scale (LFR
	// vertices or R-MAT scale), Smoke the one `go test` uses.
	Gen         func(size int, seed uint64) (graph.EdgeList, []graph.V, error)
	Size, Smoke int
	// QFloor fails a solve whose modularity is below it: a check that the
	// partition is sane on whatever seed the run was given, not a regression
	// bound (the modularity metric is that). It is pinned under the lowest Q
	// of 40-100 graphs of the family, measured at the commit that added the
	// benchmark, by as much as the family's Q spreads between seeds: par-lfr
	// 0.95 x 0.6296, par-rmat-tcp 0.85 x 0.0823, plm-lfr 0.98 x 0.6890,
	// seq-rmat 0.90 x 0.0881.
	QFloor float64
}

// nmiFloor is the least agreement with the planted communities an LFR solve
// must reach. The lowest of 100 par-lfr inputs reads 0.918, of 80 plm-lfr
// inputs 0.965.
const nmiFloor = 0.85

var workloads = []workload{
	{
		Name: "par-lfr",
		Why:  "paper's engine, 2 ranks x 1 thread over mem, 5 LFR graphs n=5000 k=16 mu=0.3 (38k edges): volume-bound, core refine/propagate + edgetable + wire + comm do the work",
		Algo: "par-louvain", Ranks: 2, Threads: 1, Inputs: 5, Gen: genLFR, Size: 5000, Smoke: 2000, QFloor: 0.598,
	},
	{
		Name: "par-rmat-tcp",
		Why:  "same engine over loopback TCP on 5 R-MAT graphs of scale 12 (65k edges, Q~0.10): hub rows, weak structure, many small rounds on real sockets; catches a comm/wire win that costs the round-bound case",
		Algo: "par-louvain", Ranks: 2, Threads: 1, TCP: true, Inputs: 5, Gen: genRMAT, Size: 12, Smoke: 10, QFloor: 0.070,
	},
	{
		Name: "plm-lfr",
		Why:  "shared-memory plm, 2 threads, 4 LFR graphs n=40000 (306k edges): move kernel + movesched + par dominate, comm/wire/edgetable bypassed; a distributed-engine change must not move it",
		Algo: "plm", Ranks: 1, Threads: 2, Inputs: 4, Gen: genLFR, Size: 40000, Smoke: 2000, QFloor: 0.675,
	},
	{
		Name: "seq-rmat",
		Why:  "single-threaded seq-louvain on 4 R-MAT graphs of scale 14 (262k edge records): the plain baseline, cost in label compaction and condense across levels rather than the move sweep",
		Algo: "seq-louvain", Ranks: 1, Threads: 1, Inputs: 4, Gen: genRMAT, Size: 14, Smoke: 10, QFloor: 0.079,
	},
	{
		Name: "serve-mix",
		Why:  "serve.Store behind loopback HTTP, closed loop of 1 client repeating a 22-job block of six small job classes: every engine where HTTP/JSON, queue, generator, graph.Build and per-job set-up are the bulk",
	},
}

// at returns the workload at the scale a run asked for: at smoke scale the
// inputs are tiny and the Q floor, pinned for the full-size graphs, is off.
func (w *workload) at(smoke bool) *workload {
	if !smoke {
		return w
	}
	small := *w
	small.Size, small.QFloor, small.Inputs = w.Smoke, 0, 1
	return &small
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// genLFR is the LFR family of the graph workloads. The bounds are explicit
// because gen.DefaultLFR ties MaxDegree to n/10, which at this size forces a
// handful of giant communities and a two-level solve. Below 10 000 vertices
// (par-lfr, and every workload at smoke scale) the largest community is held
// to an eighth of the graph.
func genLFR(n int, seed uint64) (graph.EdgeList, []graph.V, error) {
	cfg := gen.LFRConfig{
		N: n, AvgDegree: 16, MaxDegree: 100, Gamma: 2.5, Beta: 1.5, Mu: 0.3,
		MinCommunity: 32, MaxCommunity: 1000, Seed: seed,
	}
	if n < 10000 {
		cfg.MaxDegree, cfg.MinCommunity, cfg.MaxCommunity = 50, 16, n/8
	}
	return gen.LFR(cfg)
}

func genRMAT(scale int, seed uint64) (graph.EdgeList, []graph.V, error) {
	el, err := gen.RMAT(gen.DefaultRMAT(scale, seed))
	return el, nil, err
}

// instance is one generated input, ready for a solve.
type instance struct {
	el    graph.EdgeList
	truth []graph.V // planted communities, LFR only
	g     *graph.Graph
	parts []graph.EdgeList // TCP only: one destination-owned part per rank
	trs   []comm.Transport // TCP only: the connected rank group

	genS, buildS, splitS, startS float64
}

func (in *instance) setupS() float64 { return in.genS + in.buildS + in.splitS + in.startS }

func (in *instance) close() {
	for _, tr := range in.trs {
		tr.Close()
	}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// setup generates the workload's input for one seed and brings up whatever
// the solve needs around it. It is never inside a timed solve.
func (w *workload) setup(seed uint64, tr *tracer, parent ref) (*instance, error) {
	in := &instance{}
	var err error

	sp := tr.start(parent, "gen.generate", 0)
	t := time.Now()
	in.el, in.truth, err = w.Gen(w.Size, seed)
	in.genS = since(t)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}

	sp = tr.start(parent, "graph.build", 0)
	t = time.Now()
	in.g = graph.Build(in.el, 0)
	in.buildS = since(t)
	sp.end()

	if !w.TCP {
		return in, nil
	}
	sp = tr.start(parent, "graph.split", 0)
	t = time.Now()
	in.parts = graph.SplitEdges(in.el, w.Ranks)
	in.splitS = since(t)
	sp.end()

	sp = tr.start(parent, "comm.start", 0)
	t = time.Now()
	in.trs, err = tcpGroup(w.Ranks)
	in.startS = since(t)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("tcp group: %w", err)
	}
	return in, nil
}

// tcpGroup connects a loopback TCP rank group; every member must dial
// concurrently.
func tcpGroup(ranks int) ([]comm.Transport, error) {
	addrs, err := comm.LocalAddrs(ranks)
	if err != nil {
		return nil, err
	}
	trs := make([]comm.Transport, ranks)
	var g par.Group
	for r := 0; r < ranks; r++ {
		r := r
		g.Go(func() (err error) {
			trs[r], err = comm.NewTCP(comm.TCPConfig{Rank: r, Addrs: addrs})
			return err
		})
	}
	if err := g.Wait(); err != nil {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
		return nil, err
	}
	return trs, nil
}

// solve is the timed call: one full detection through the library's public
// entry points, with library-default options.
func (w *workload) solve(in *instance, opt parlouvain.AlgoOptions) (*parlouvain.AlgoResult, error) {
	opt.Ranks, opt.Threads = w.Ranks, w.Threads
	if !w.TCP {
		return parlouvain.DetectAlgo(w.Algo, in.el, opt)
	}
	results := make([]*parlouvain.AlgoResult, w.Ranks)
	var g par.Group
	for r := 0; r < w.Ranks; r++ {
		r := r
		g.Go(func() (err error) {
			results[r], err = parlouvain.DetectAlgoDistributed(w.Algo, in.trs[r], in.parts[r], in.g.N, opt)
			return err
		})
	}
	return results[0], g.Wait()
}

// check verifies one solve's output, outside the timed region.
func (w *workload) check(in *instance, res *parlouvain.AlgoResult) error {
	n := in.g.N
	if len(res.Assignment) != n {
		return fmt.Errorf("assignment covers %d of %d vertices", len(res.Assignment), n)
	}
	for v, c := range res.Assignment {
		if int(c) >= n {
			return fmt.Errorf("vertex %d labelled %d outside [0,%d)", v, c, n)
		}
	}
	q := metrics.Modularity(in.g, res.Assignment)
	if math.Abs(q-res.Q) > 1e-9 {
		return fmt.Errorf("reported Q %.12f, recomputed %.12f", res.Q, q)
	}
	if q < w.QFloor {
		return fmt.Errorf("Q %.6f below the workload's floor %.6f", q, w.QFloor)
	}
	if in.truth != nil {
		sim, err := metrics.Compare(res.Assignment, in.truth)
		if err != nil {
			return fmt.Errorf("compare with planted communities: %w", err)
		}
		if sim.NMI < nmiFloor {
			return fmt.Errorf("NMI %.4f vs planted communities below %.2f", sim.NMI, nmiFloor)
		}
	}
	return nil
}

// timedSolve is one solve with everything around it that is not timed: a
// TCP workload gets a rank group of its own (the one set-up dialled, or a
// fresh one), the heap is collected first, and the output is checked after.
// It returns the solve's wall and CPU seconds. Spans go to tr when it is set.
func (w *workload) timedSolve(in *instance, opt parlouvain.AlgoOptions, tr *tracer, parent ref) (*parlouvain.AlgoResult, float64, float64, error) {
	if w.TCP && in.trs == nil {
		trs, err := tcpGroup(w.Ranks)
		if err != nil {
			return nil, 0, 0, err
		}
		in.trs = trs
	}
	runtime.GC()
	outer := tr.start(parent, "solve", 0)
	inner := tr.start(outer, "algo.run", 0)
	cpu0 := cpuSeconds()
	t := time.Now()
	res, err := w.solve(in, opt)
	wall := since(t)
	cpu := cpuSeconds() - cpu0
	inner.end()
	outer.end()
	in.close()
	in.trs = nil
	if err == nil {
		err = w.check(in, res)
	}
	return res, wall, cpu, err
}

// instanceSeed derives the i-th input of a run from the run's seed, so a
// run sees several graphs of one family and its figures do not hang on one
// graph's convergence path.
func instanceSeed(seed int64, i int) uint64 { return uint64(seed)*1_000_003 + uint64(i) + 1 }

// minPasses is how often every input is solved at least; the fastest solve
// of an input counts. The solves are deterministic and the noise on a shared
// host only ever adds time, in bursts from milliseconds to minutes: with few
// inputs, short solves and many passes, nearly every input meets a quiet
// moment in every run. The passes visit the inputs in turn, so an input's
// solves lie a whole pass apart and one burst does not cover them all.
const minPasses = 2

// Each input is set up at least minSetupReps times and until setupSpend
// seconds have gone into it; the fastest set-up counts, for the same reason.
// A 15 ms set-up (par-lfr) is thus repeated some 17 times: the fastest of 3
// still moved by a quarter between two sets of runs.
const (
	minSetupReps = 3
	setupSpend   = 0.25
)

// runGraph is the untraced run of a graph workload. It sets up the
// workload's Inputs graphs, then solves them in turn, pass after pass, until
// the window is used up. Each input counts with its fastest solve, and every
// end-to-end time is the mean of those over the inputs (set-up: the median).
// The number of inputs is fixed, so a slower host makes fewer passes over the
// same graphs, not a figure over fewer graphs.
func (w *workload) runGraph(cfg config) (*outcome, error) {
	out := &outcome{Metrics: map[string]value{}}
	w = w.at(cfg.smoke)
	begin := time.Now()
	ins := make([]*instance, w.Inputs)
	setups := make([]float64, w.Inputs)
	setupReps := 0
	for i := range ins {
		setups[i] = math.Inf(1)
		t := time.Now()
		for r := 0; r < minSetupReps || (since(t) < setupSpend && !cfg.smoke); r++ {
			in, err := w.setup(instanceSeed(cfg.seed, i), nil, ref{})
			if err != nil {
				return nil, err
			}
			if ins[i] != nil {
				ins[i].close()
			}
			ins[i], setups[i] = in, min(setups[i], in.setupS())
			setupReps++
		}
	}

	best := make([]float64, w.Inputs) // fastest solve per input; +Inf until one passed its check
	cpus := make([]float64, w.Inputs)
	qs := make([]float64, w.Inputs)
	for i := range best {
		best[i] = math.Inf(1)
	}
	passes := 0
	for ; ; passes++ {
		// Start a pass only if, at the pace so far, it fits the window.
		if passes >= minPasses && since(begin)+since(begin)/float64(passes) > cfg.seconds {
			break
		}
		for i, in := range ins {
			res, wall, cpu, err := w.timedSolve(in, parlouvain.AlgoOptions{}, nil, ref{})
			out.Attempted++
			if err != nil {
				out.fail(fmt.Sprintf("input %d pass %d: %v", i, passes, err))
				continue
			}
			if wall < best[i] {
				best[i], cpus[i], qs[i] = wall, cpu, res.Q
			}
		}
		if cfg.smoke {
			passes++
			break
		}
	}
	for _, s := range best {
		if math.IsInf(s, 1) {
			return out, nil // an input never solved correctly: no timings
		}
	}
	n := w.Inputs
	out.set("setup_s", median(setups), setupReps)
	out.set("solve_s", mean(best), n*passes)
	out.set("modularity", mean(qs), n)
	out.set("cpu_s", mean(cpus), n*passes)
	// The caller of a library call waits exactly the solve.
	out.set("job_p50_ms", 1000*mean(best), n*passes)
	out.set("jobs_per_s", 1/mean(best), n*passes)
	out.set("peak_rss_mb", peakRSSMiB(), 1)
	return out, nil
}
