package algo

import (
	"context"
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// runRank0 executes a whole-graph engine through the rank group: every rank
// ships its single-counted local edges to rank 0 (one exchange), rank 0
// rebuilds the full graph and runs fn, and the outcome — or fn's error — is
// broadcast in a second exchange so every rank returns identically and no
// rank is left parked in a collective. Both exchanges ride the group's
// transport, so chaos faults and the sim cost model exercise this path like
// any other.
func runRank0(ctx context.Context, g Graph, opt Options, name string,
	fn func(full *graph.Graph) (*core.Result, map[string]float64, error)) (*Result, error) {
	c := g.Comm
	start := time.Now()
	if opt.Metrics != nil {
		c.Instrument(opt.Metrics)
		opt.Metrics.Gauge("louvain_threads").Set(float64(core.ResolveThreads(opt.Threads)))
		opt.Metrics.SetHelp("louvain_threads", "resolved per-rank worker thread count (-threads 0 auto-selects the CPU count)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Gather: each undirected edge appears in the group once per
	// orientation (SplitEdges), so sending only the U <= V orientation
	// single-counts it; self-loops are stored once and pass the filter.
	tsGather := recNow(opt.Recorder)
	planes := wire.GetPlanes(c.Size())
	defer planes.Release()
	planes.Reset()
	k := 0
	for _, e := range g.Local {
		if e.U <= e.V {
			k++
		}
	}
	to0 := planes.To(0)
	to0.Grow(k * wire.TripleSize)
	for _, e := range g.Local {
		if e.U <= e.V {
			to0.PutTriple(wire.Triple{A: e.U, B: e.V, W: e.W})
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
		el, runErr = decodeGather(in, g.N)
		wire.ReleasePlanes(in)
		emitPhase(opt.Recorder, "algo_gather", c.Rank(), tsGather)
		if runErr == nil {
			tsCompute := recNow(opt.Recorder)
			full := graph.Build(el, g.N)
			cres, extra, runErr = fn(full)
			emitPhase(opt.Recorder, "algo_compute", c.Rank(), tsCompute)
		}
	} else {
		wire.ReleasePlanes(in)
		emitPhase(opt.Recorder, "algo_gather", c.Rank(), tsGather)
	}

	// Broadcast the outcome (or the failure) from rank 0 to everyone.
	tsBcast := recNow(opt.Recorder)
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
	res, err := decodeOutcome(in2[0], name, g.N)
	wire.ReleasePlanes(in2)
	emitPhase(opt.Recorder, "algo_broadcast", c.Rank(), tsBcast)
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 && cres != nil {
		// Local-only metadata that needn't ride the broadcast plane.
		res.FirstLevel = cres.FirstLevel
		res.Breakdown = cres.Breakdown
	}
	emitLevels(opt.Recorder, c.Rank(), res)
	res.Duration = time.Since(start)
	return res, nil
}

// decodeGather turns the planes rank 0 received into one edge list, sized
// once from the plane lengths. An id outside [0, n) or a non-finite weight is
// an error here — as it is in par-louvain's loadLocal — rather than an index
// panic in graph.Build or a poisoned accumulator in the engine.
func decodeGather(in [][]byte, n int) (graph.EdgeList, error) {
	total := 0
	for _, plane := range in {
		total += len(plane) / wire.TripleSize
	}
	el := make(graph.EdgeList, 0, total)
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			tr := r.Triple()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if int(tr.A) >= n || int(tr.B) >= n {
				return nil, fmt.Errorf("edge (%d,%d) outside vertex space %d", tr.A, tr.B, n)
			}
			e := graph.Edge{U: tr.A, V: tr.B, W: tr.W}
			if err := e.CheckWeight(); err != nil {
				return nil, err
			}
			el = append(el, e)
		}
	}
	return el, nil
}

// recNow returns the recorder timestamp, or 0 without a recorder.
func recNow(rec *obs.Recorder) int64 {
	if rec == nil {
		return 0
	}
	return rec.Now()
}

// emitPhase records one timed harness phase for the Chrome-trace timeline.
func emitPhase(rec *obs.Recorder, name string, rank int, ts int64) {
	if rec == nil {
		return
	}
	rec.Emit(obs.Event{Name: name, Rank: rank, TS: ts, Dur: rec.Now() - ts})
}

// emitLevels replays the result's per-level trajectory as "level" events
// (rank 0 only), mirroring the parallel engine's stream so run reports and
// traces cover rank-0 engines too.
func emitLevels(rec *obs.Recorder, rank int, res *Result) {
	if rec == nil || rank != 0 {
		return
	}
	ts := rec.Now()
	for i, lv := range res.Levels {
		rec.Emit(obs.Event{
			Name: "level", Rank: rank, Level: i, TS: ts,
			Fields: map[string]float64{
				"q":                lv.Q,
				"vertices":         float64(lv.Vertices),
				"communities":      float64(lv.Communities),
				"inner_iterations": float64(lv.Iterations),
			},
		})
	}
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
	b.PutUvarint(uint64(len(cres.Levels)))
	for _, lv := range cres.Levels {
		b.PutF64(lv.Q)
		b.PutUvarint(uint64(lv.Vertices))
		b.PutUvarint(uint64(lv.Communities))
		b.PutUvarint(uint64(lv.InnerIterations))
	}
	b.PutAssign(cres.Membership)
	b.PutUvarint(uint64(len(extra)))
	for k, v := range extra {
		b.PutString(k)
		b.PutF64(v)
	}
}

// decodeOutcome inverts encodeOutcome into a unified Result.
func decodeOutcome(plane []byte, name string, n int) (*Result, error) {
	var r wire.Reader
	r.Reset(plane)
	status := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
	}
	if status == 0 {
		msg := r.String()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
		}
		return nil, fmt.Errorf("algo: %s rank 0: %s", name, msg)
	}
	res := &Result{Algo: name, NumVertices: n}
	res.Q = r.F64()
	res.NumEdges = int64(r.U64())
	levels := int(r.Uvarint())
	if r.Err() == nil && levels >= 0 && levels <= 1<<20 {
		res.Levels = make([]LevelStat, 0, levels)
		for i := 0; i < levels && r.Err() == nil; i++ {
			var lv LevelStat
			lv.Q = r.F64()
			lv.Vertices = int(r.Uvarint())
			lv.Communities = int(r.Uvarint())
			lv.Iterations = int(r.Uvarint())
			res.Levels = append(res.Levels, lv)
		}
	}
	res.Assignment = r.Assign(nil)
	nExtra := int(r.Uvarint())
	if r.Err() == nil && nExtra > 0 {
		res.Extra = make(map[string]float64, nExtra)
		for i := 0; i < nExtra && r.Err() == nil; i++ {
			k := r.String()
			res.Extra[k] = r.F64()
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("algo: %s outcome plane: %w", name, err)
	}
	return res, nil
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
