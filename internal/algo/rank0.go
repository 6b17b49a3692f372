package algo

import (
	"context"
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// runRank0 executes a whole-graph engine through the rank group: every other
// rank ships its single-counted local edges to rank 0 (one exchange), rank 0
// adds its own, rebuilds the full graph and runs e.compute, and the outcome —
// or compute's error — is broadcast in a second exchange so every rank
// returns identically and no rank is left parked in a collective. Both
// exchanges ride the group's transport, so chaos faults and the sim cost
// model exercise this path like any other.
func (e wholeGraph) runRank0(ctx context.Context, g Graph, opt Options) (*Result, error) {
	c := g.Comm
	start := time.Now()
	if opt.Metrics != nil {
		c.Instrument(opt.Metrics)
	}
	setThreadsGauge(opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather: each undirected edge appears in the group once per
	// orientation (SplitEdges), so taking only the U <= V orientation
	// single-counts it; self-loops are stored once and pass the filter.
	// Rank 0's own share needs no plane.
	tsGather := opt.Recorder.Now()
	planes := wire.GetPlanes(c.Size())
	defer planes.Release()
	planes.Reset()
	if c.Rank() != 0 {
		to0 := planes.To(0)
		to0.Grow(singleCounted(g.Local) * wire.TripleSize)
		for _, ed := range g.Local {
			if ed.U <= ed.V {
				to0.PutTriple(wire.Triple{A: ed.U, B: ed.V, W: ed.W})
			}
		}
	}
	in, err := c.ExchangePlanes(planes)
	if err != nil {
		return nil, err
	}
	var cres *core.Result
	var extra map[string]float64
	var runErr error
	if c.Rank() == 0 {
		var el graph.EdgeList
		el, runErr = decodeGather(g.Local, in)
		wire.ReleasePlanes(in)
		emitPhase(opt.Recorder, "algo_gather", c.Rank(), tsGather)
		if runErr == nil {
			cres, extra, _, runErr = e.solve(ctx, el, g.N, opt)
		}
	} else {
		wire.ReleasePlanes(in)
		emitPhase(opt.Recorder, "algo_gather", c.Rank(), tsGather)
	}

	// Broadcast the outcome (or the failure) from rank 0 to everyone.
	tsBcast := opt.Recorder.Now()
	planes.Reset()
	if c.Rank() == 0 {
		for r := 0; r < c.Size(); r++ {
			encodeOutcome(planes.To(r), cres, extra, runErr)
		}
	}
	in2, err := c.ExchangePlanes(planes)
	if err != nil {
		return nil, err
	}
	out, extra, err := decodeOutcome(in2[0], e.info.Name, g.N)
	wire.ReleasePlanes(in2)
	emitPhase(opt.Recorder, "algo_broadcast", c.Rank(), tsBcast)
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 && cres != nil {
		// Local-only metadata that needn't ride the broadcast plane.
		out.FirstLevel = cres.FirstLevel
	}
	return e.result(out, extra, start), nil
}

// solve is rank 0's own work on either path: el — gathered, or the caller's —
// is checked, built and computed on. An id outside [0, n) or a non-finite
// weight is an error here, as it is in par-louvain's loadLocal, rather than an
// index panic in graph.Build or a poisoned accumulator in the engine.
func (e wholeGraph) solve(ctx context.Context, el graph.EdgeList, n int, opt Options) (*core.Result, map[string]float64, *graph.Graph, error) {
	ts := opt.Recorder.Now()
	for _, ed := range el {
		if err := ed.Check(n); err != nil {
			return nil, nil, nil, err
		}
	}
	full := graph.Build(el, n)
	cres, extra, err := e.compute(ctx, full, opt)
	emitPhase(opt.Recorder, "algo_compute", 0, ts)
	return cres, extra, full, err
}

// direct is runRank0 for a group of one on the mem transport, where there is
// nobody to gather from or broadcast to: el goes straight to solve. At one
// rank the gathered list is the input with every edge oriented, in input
// order, and Build orients anyway, so the result is runRank0's to the bit;
// the traffic it reports is what happened, none.
func (e wholeGraph) direct(ctx context.Context, el graph.EdgeList, n int, opt Options) (*Result, error) {
	start := time.Now()
	setThreadsGauge(opt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cres, extra, full, err := e.solve(ctx, el, n, opt)
	if err != nil { // what runRank0 sends through the outcome plane's status word
		return nil, fmt.Errorf("algo: %s rank 0: %w", e.info.Name, err)
	}
	res := e.result(cres, extra, start)
	if opt.CheckInvariants {
		// finish's checks; the cross-rank hash has one rank to agree with.
		if err := checkShape(e.info, n, res); err != nil {
			return nil, err
		}
		if err := checkQ(e.info, opt, res, metrics.Modularity(full, res.Assignment)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// result turns a whole-graph outcome — computed here, or decoded from rank
// 0's broadcast — into the unified Result. Its "level" events were emitted
// as its levels ran, on rank 0.
func (e wholeGraph) result(cres *core.Result, extra map[string]float64, start time.Time) *Result {
	res := fromCore(e.info.Name, cres)
	res.Extra = extra
	res.Duration = time.Since(start)
	return res
}

// setThreadsGauge publishes the worker count a whole-graph engine resolves
// opt.Threads to, under the name par-louvain uses.
func setThreadsGauge(opt Options) {
	if opt.Metrics == nil {
		return
	}
	opt.Metrics.Gauge("louvain_threads").Set(float64(core.ResolveThreads(opt.Threads)))
	opt.Metrics.SetHelp("louvain_threads", "resolved per-rank worker thread count (-threads 0 auto-selects the CPU count)")
}

// singleCounted returns the number of local edges in the U <= V orientation:
// this rank's share of the group's single-counted edge list.
func singleCounted(local graph.EdgeList) int {
	k := 0
	for _, ed := range local {
		if ed.U <= ed.V {
			k++
		}
	}
	return k
}

// decodeGather makes rank 0's edge list, sized once: its own single-counted
// edges, then the planes the other ranks sent.
func decodeGather(local graph.EdgeList, in [][]byte) (graph.EdgeList, error) {
	total := singleCounted(local)
	for _, plane := range in {
		total += len(plane) / wire.TripleSize
	}
	el := make(graph.EdgeList, 0, total)
	for _, ed := range local {
		if ed.U <= ed.V {
			el = append(el, ed)
		}
	}
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			tr := r.Triple()
			if err := r.Err(); err != nil {
				return nil, err
			}
			el = append(el, graph.Edge{U: tr.A, V: tr.B, W: tr.W})
		}
	}
	return el, nil
}

// emitPhase records one timed harness phase for the Chrome-trace timeline.
func emitPhase(rec *obs.Recorder, name string, rank int, ts int64) {
	if rec == nil {
		return
	}
	rec.Emit(obs.Event{Name: name, Rank: rank, TS: ts, Dur: rec.Now() - ts})
}

// encodeOutcome writes a rank-0 outcome plane: a status word, then either
// the error string or the result payload.
func encodeOutcome(b *wire.Buffer, cres *core.Result, extra map[string]float64, runErr error) {
	if runErr != nil {
		b.PutU32(0)
		b.PutString(runErr.Error())
		return
	}
	b.PutU32(1)
	b.PutF64(cres.Q)
	b.PutU64(uint64(cres.NumEdges))
	b.PutUvarint(uint64(cres.Stop))
	b.PutUvarint(uint64(len(cres.Levels)))
	for _, lv := range cres.Levels {
		b.PutF64(lv.Q)
		b.PutUvarint(uint64(lv.Vertices))
		b.PutUvarint(uint64(lv.Communities))
		b.PutUvarint(uint64(lv.InnerIterations))
		b.PutUvarint(uint64(lv.Stop))
	}
	b.PutAssign(cres.Membership)
	b.PutUvarint(uint64(len(extra)))
	for k, v := range extra {
		b.PutString(k)
		b.PutF64(v)
	}
}

// decodeOutcome inverts encodeOutcome.
func decodeOutcome(plane []byte, name string, n int) (*core.Result, map[string]float64, error) {
	var r wire.Reader
	r.Reset(plane)
	status := r.U32()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
	}
	if status == 0 {
		msg := r.String()
		if err := r.Err(); err != nil {
			return nil, nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
		}
		return nil, nil, fmt.Errorf("algo: %s rank 0: %s", name, msg)
	}
	cres := &core.Result{NumVertices: n}
	cres.Q = r.F64()
	cres.NumEdges = int64(r.U64())
	cres.Stop = core.Stop(r.Uvarint())
	levels := int(r.Uvarint())
	if r.Err() == nil && levels >= 0 && levels <= 1<<20 {
		cres.Levels = make([]core.Level, 0, levels)
		for i := 0; i < levels && r.Err() == nil; i++ {
			var lv core.Level
			lv.Q = r.F64()
			lv.Vertices = int(r.Uvarint())
			lv.Communities = int(r.Uvarint())
			lv.InnerIterations = int(r.Uvarint())
			lv.Stop = core.Stop(r.Uvarint())
			cres.Levels = append(cres.Levels, lv)
		}
	}
	cres.Membership = r.Assign(nil)
	var extra map[string]float64
	nExtra := int(r.Uvarint())
	if r.Err() == nil && nExtra > 0 {
		extra = make(map[string]float64, nExtra)
		for i := 0; i < nExtra && r.Err() == nil; i++ {
			k := r.String()
			extra[k] = r.F64()
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
	}
	return cres, extra, nil
}

// groupTraffic fills the result's group-total wire traffic with one final
// reduction (mirroring core's accounting for the other engines).
func groupTraffic(c *comm.Comm, res *Result) error {
	bytes, err := c.AllReduceUint64(c.BytesSent(), comm.OpSum)
	if err != nil {
		return err
	}
	res.CommBytes = bytes
	res.CommRounds = c.Rounds()
	return nil
}
