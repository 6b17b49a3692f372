package core

import (
	"fmt"
	"math"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/edgetable"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
	"parlouvain/internal/wire"
)

// The parallel algorithm is organized as a pipeline of phase units over one
// shared engine state, one file per phase family:
//
//	engine.go      — engine state, the level loop (Algorithm 2), wire I/O
//	reconstruct.go — graph loading, per-level derivation, reconstruction
//	               	 (Algorithm 5) and assignment gathering
//	propagate.go   — full and delta state propagation + Σtot pull
//	               	 (Algorithm 3 / Equation 4 inputs)
//	refine.go      — the inner refinement loop: findBest, threshold, update,
//	               	 modularity (Algorithm 4)
//	warm.go        — warm-start seeding
//
// Each phase is an engine method with a small contract over the shared
// state, so variants compose without touching the loop: run chooses
// propagate vs. propagateDelta per iteration, threshold switches between
// the ε-heuristic and the naive all-positive rule, and tests drive single
// phases (see bench_exchange_test.go) without a full Parallel run. All
// inter-rank payloads are encoded with the internal/wire codec through
// pooled per-destination planes.

// Parallel runs the distributed Louvain algorithm (Algorithm 2) as one rank
// of the group behind c. local is this rank's portion of the input in
// destination-owned orientation — entry (U=src, V=dst, W) with owner(dst)
// == rank — as produced by graph.SplitEdges (self-loops delivered once).
// n is the global vertex count. Every rank receives an identical Result.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := CheckWarm(opt.Warm, n); err != nil {
		return nil, err
	}
	s := newEngine(c, n, opt)
	if err := s.loadLocal(local); err != nil {
		return nil, err
	}
	return s.run()
}

// engine is one rank's working state, shared by every phase unit. Vertex and
// community ids share the global id space [0,n); this rank owns ids
// congruent to its rank mod P and indexes them densely by id/P ("local
// index"). In_ and Out_ tables are sharded by local index so worker threads
// scan disjoint vertex sets.
type engine struct {
	c    *comm.Comm
	opt  Options
	part graph.Partition
	n    int
	nLoc int

	in  []*edgetable.Table // (src,dst) -> w, dst owned; self-loops doubled
	out []*edgetable.Table // (u,comm)  -> w_{u->comm}, u owned

	// levelStore is the read backend for the current level's frozen graph
	// (Options.Storage): either sharded — the In_Table shards viewed as one
	// Store — or a CSR wrapped around the adjacency arrays below. Reset by
	// every levelInit; serves the level's Len/Stats/lookup queries and the
	// storage-consistency invariant.
	levelStore edgetable.Store
	sharded    edgetable.Sharded

	// Vertex-pruning state (Options.Prune; dirty is nil when off). A vertex
	// is dirty when its last findBest result may be stale: it moved, a
	// neighbor's move touched its Out_Table row (deltaMerge), or a
	// community it references changed Σtot/members (changedComms, diffed in
	// pullTotals). allDirty forces a full sweep after full propagations and
	// at level starts, when per-vertex tracking has no baseline. dirty[li]
	// is only written by update's serial loop, by the merge/mark worker of
	// shard li%Threads, or by findBest itself, so sweeps stay race-free.
	dirty        []bool
	allDirty     bool
	changedComms map[uint32]struct{}

	// remoteTot and remoteMembers cache Σtot and the member count for
	// every community referenced by this rank's Out_Table entries,
	// refreshed by each state propagation. Member counts feed the
	// singleton minimum-label rule that breaks symmetric swap cycles
	// (see findBest).
	remoteTot     *edgetable.Table
	remoteMembers *edgetable.Table

	active []bool
	commOf []graph.V
	k      []float64
	self2  []float64 // doubled self-loop weight of owned vertices
	totOwn []float64 // Σtot of owned communities
	memOwn []int64   // member count of owned communities
	inOwn  []float64 // Σin of owned communities (per-Q scratch)

	// Per-level CSR of the owned vertices' in-edges, derived from the
	// In_Table at levelInit. It serves two purposes: sequential-access
	// scans for the full state propagation, and per-vertex source lists
	// for delta propagation (only the in-edges of vertices that moved
	// are rebroadcast, so late low-movement iterations are cheap).
	adjOff []int64
	adjSrc []graph.V
	adjW   []float64

	// moveLog records the current iteration's moves for delta
	// propagation.
	moveLog []moveRec

	stay     []float64
	bestTo   []graph.V
	bestGain []float64

	// Best-state snapshot within a level: parallel moves on stale
	// information can transiently lower Q before recovering, so the
	// inner loop runs until the decayed threshold stops all movement and
	// the level then rolls back to its best observed state. All
	// snapshotted state is rank-local, and snapshots are taken at the
	// same iteration on every rank, so restoring is globally consistent.
	bestSnapQ   float64
	snapComm    []graph.V
	snapTot     []float64
	snapMembers []int64

	// Pooled per-destination send planes, reset at the start of every
	// exchange-building pass and recycled when the engine finishes.
	planes *wire.Planes

	// Streaming-exchange state (scatter.go): per-thread chunked send
	// planes, the collator that restores deterministic merge order on the
	// receive side, and the per-merge-worker error slots. All reused
	// across rounds.
	chunked   wire.ChunkedPlanes
	coll      *comm.Collator
	mergeErrs []error

	// Scatter callback plumbing. The per-phase build/merge callbacks and
	// the par.For bodies that wrap them are bound once at construction —
	// creating a method value or a capturing closure allocates, and doing
	// that inside propagate would put allocations back on the steady-state
	// round that the plane pooling works to keep allocation-free. curBuild
	// and curMerge select the active phase for the shared bodies; bulkIn
	// and readers carry the received round through bulkMergeBody.
	curBuild      func(t, lo, hi int, w *wire.ChunkWriter)
	curMerge      func(t int, r *wire.Reader) error
	buildBody     func(t, lo, hi int)
	bulkMergeBody func(t, lo, hi int)
	bulkIn        [][]byte
	readers       []wire.Reader
	newComms      [][]uint32
	propBuildFn   func(t, lo, hi int, w *wire.ChunkWriter)
	propMergeFn   func(t int, r *wire.Reader) error
	deltaBuildFn  func(t, lo, hi int, w *wire.ChunkWriter)
	deltaMergeFn  func(t int, r *wire.Reader) error
	reconBuildFn  func(t, lo, hi int, w *wire.ChunkWriter)
	reconMergeFn  func(t int, r *wire.Reader) error

	m  float64
	bd *perf.Breakdown

	// Telemetry (all optional; nil-checked on the hot path).
	rec     *obs.Recorder
	mLevel  *obs.Gauge
	mIter   *obs.Gauge
	mQ      *obs.Gauge
	mActive *obs.Gauge
	mMoves  *obs.Counter
	mIters  *obs.Counter
}

func newEngine(c *comm.Comm, n int, opt Options) *engine {
	opt.StreamChunk = ResolveStreamChunk(opt.StreamChunk, c.TransportKind(), c.Size())
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)
	s := &engine{
		c:        c,
		opt:      opt,
		part:     part,
		n:        n,
		nLoc:     nLoc,
		active:   make([]bool, nLoc),
		commOf:   make([]graph.V, nLoc),
		k:        make([]float64, nLoc),
		self2:    make([]float64, nLoc),
		totOwn:   make([]float64, nLoc),
		memOwn:   make([]int64, nLoc),
		inOwn:    make([]float64, nLoc),
		stay:     make([]float64, nLoc),
		bestTo:   make([]graph.V, nLoc),
		bestGain: make([]float64, nLoc),
		bd:       perf.NewBreakdown(),
	}
	tcfg := func(capHint int) edgetable.Config {
		return edgetable.Config{
			Hash:       opt.Hash,
			Layout:     opt.TableLayout,
			LoadFactor: opt.LoadFactor,
			Capacity:   capHint,
		}
	}
	s.in = make([]*edgetable.Table, opt.Threads)
	s.out = make([]*edgetable.Table, opt.Threads)
	for t := 0; t < opt.Threads; t++ {
		s.in[t] = edgetable.New(tcfg(1024))
		s.out[t] = edgetable.New(tcfg(1024))
	}
	s.sharded = edgetable.NewSharded(s.in...)
	s.levelStore = s.sharded
	if opt.Prune {
		s.dirty = make([]bool, nLoc)
		s.allDirty = true
		s.changedComms = make(map[uint32]struct{})
	}
	s.remoteTot = edgetable.New(tcfg(256))
	s.remoteMembers = edgetable.New(tcfg(256))
	s.planes = wire.GetPlanes(c.Size())
	s.coll = c.NewCollator()
	s.mergeErrs = make([]error, opt.Threads)
	s.readers = make([]wire.Reader, opt.Threads)
	s.newComms = make([][]uint32, opt.Threads)
	s.buildBody = func(t, lo, hi int) { s.curBuild(t, lo, hi, s.chunked.Writer(t)) }
	s.bulkMergeBody = func(t, _, _ int) {
		r := &s.readers[t]
		for _, plane := range s.bulkIn {
			r.Reset(plane)
			if err := s.curMerge(t, r); err != nil {
				s.mergeErrs[t] = err
				return
			}
		}
	}
	s.propBuildFn = s.propagateBuild
	s.propMergeFn = s.propagateMerge
	s.deltaBuildFn = s.deltaBuild
	s.deltaMergeFn = s.deltaMerge
	s.reconBuildFn = s.reconstructBuild
	s.reconMergeFn = s.reconstructMerge
	s.rec = opt.Recorder
	if reg := opt.Metrics; reg != nil {
		c.Instrument(reg)
		s.mLevel = reg.Gauge("louvain_level")
		s.mIter = reg.Gauge("louvain_iteration")
		s.mQ = reg.Gauge("louvain_modularity")
		s.mActive = reg.Gauge("louvain_active_vertices")
		s.mMoves = reg.Counter("louvain_moves_total")
		s.mIters = reg.Counter("louvain_iterations_total")
		reg.Gauge("louvain_stream_chunk_bytes").Set(float64(opt.StreamChunk))
		reg.SetHelp("louvain_stream_chunk_bytes", "resolved scatter exchange mode: chunk size in bytes, -1 for bulk rounds")
		reg.Gauge("louvain_threads").Set(float64(opt.Threads))
		reg.SetHelp("louvain_threads", "resolved per-rank worker thread count (-threads 0 auto-selects the CPU count)")
	}
	if s.rec != nil {
		// A zero-duration config marker pinning the resolved exchange mode
		// (and the inputs of the automatic choice) into the event stream.
		s.rec.Emit(obs.Event{
			Name: "config", Rank: part.Rank, TS: s.rec.Now(),
			Fields: map[string]float64{
				"stream_chunk": float64(opt.StreamChunk),
				"ranks":        float64(c.Size()),
				"threads":      float64(opt.Threads),
			},
		})
	}
	return s
}

// now returns the telemetry timestamp (µs since the recorder epoch), or 0
// with no recorder attached.
func (s *engine) now() int64 {
	if s.rec == nil {
		return 0
	}
	return s.rec.Now()
}

// emitPhase records one timed phase slice for the Chrome-trace timeline.
func (s *engine) emitPhase(name string, level, iter int, ts int64, d time.Duration) {
	if s.rec == nil {
		return
	}
	s.rec.Emit(obs.Event{Name: name, Rank: s.part.Rank, Level: level, Iter: iter, TS: ts, Dur: d.Microseconds()})
}

// inTableStats reports the current level store's occupancy statistics
// (valid between levelInit and reconstruct): a slot sweep on the hash
// backend, precomputed at freeze time on CSR.
func (s *engine) inTableStats() edgetable.Stats {
	return s.levelStore.Stats()
}

// outPlanes resets and returns the per-destination send planes.
func (s *engine) outPlanes() *wire.Planes {
	s.planes.Reset()
	return s.planes
}

// exchange ships the encoded send planes and returns the received round.
// The result is drawn from the wire plane pool: decode it fully, then hand
// it back with wire.ReleasePlanes.
func (s *engine) exchange(p *wire.Planes) ([][]byte, error) {
	return s.c.ExchangePlanes(p)
}

func (s *engine) shardOf(localIdx int) int { return localIdx % s.opt.Threads }

type moveRec struct {
	li   int
	oldC graph.V
}

// run drives the outer loop (Algorithm 2): per level, a full propagation,
// the inner refinement loop, then reconstruction of the supergraph.
func (s *engine) run() (*Result, error) {
	start := time.Now()
	res := &Result{
		NumVertices: s.n,
		Breakdown:   s.bd,
	}
	membership := make([]graph.V, s.n)
	for i := range membership {
		membership[i] = graph.V(i)
	}

	vertices, err := s.levelInit()
	if err != nil {
		return nil, err
	}
	if s.opt.Warm != nil {
		if err := s.applyWarm(); err != nil {
			return nil, err
		}
	}
	// Input edge count for TEPS: single-counted distinct entries.
	localEdges := uint64(s.levelStore.Len())
	totalEntries, err := s.c.AllReduceUint64(localEdges, comm.OpSum)
	if err != nil {
		return nil, err
	}
	res.NumEdges = int64(totalEntries / 2) // both orientations stored; self-loops undercount by half, acceptable for TEPS

	if s.m == 0 {
		res.Duration = time.Since(start)
		res.Membership = membership
		return res, nil
	}

	qLevelPrev := math.Inf(-1)
	prevBytes, prevRounds := s.c.BytesSent(), s.c.Rounds()
	for level := 0; level < s.opt.MaxLevels; level++ {
		if err := s.opt.canceled(); err != nil {
			return nil, fmt.Errorf("core: %w at level %d: %w", ErrCanceled, level, err)
		}
		refineStart := time.Now()
		tsLevel := s.now()
		var inStats edgetable.Stats
		if s.rec != nil {
			inStats = s.inTableStats()
		}
		if s.mLevel != nil {
			s.mLevel.Set(float64(level))
			s.mActive.Set(float64(vertices))
		}
		var sw perf.Stopwatch

		tsProp0 := s.now()
		sw.Start(s.bd, perf.PhasePropagation)
		if err := s.propagate(); err != nil {
			return nil, err
		}
		sw.Stop()
		s.emitPhase(perf.PhasePropagation, level, 0, tsProp0, time.Duration(s.now()-tsProp0)*time.Microsecond)
		q, err := s.computeQ()
		if err != nil {
			return nil, err
		}

		q, movesPerIter, err := s.refineLevel(level, vertices, &sw, q)
		if err != nil {
			return nil, err
		}
		s.bd.Add(perf.PhaseRefine, time.Since(refineStart))

		if s.checksEnabled() {
			if err := s.checkLevel(level, vertices, q, qLevelPrev); err != nil {
				return nil, err
			}
		}

		if s.opt.CollectLevels {
			full, err := s.gatherAssignments()
			if err != nil {
				return nil, err
			}
			for orig := range membership {
				membership[orig] = full[membership[orig]]
			}
		}

		tRecon := time.Now()
		tsRecon := s.now()
		mBefore := s.m
		sw.Start(s.bd, perf.PhaseReconstruction)
		if err := s.reconstruct(); err != nil {
			return nil, err
		}
		sw.Stop()
		dRecon := time.Since(tRecon)
		s.emitPhase(perf.PhaseReconstruction, level, 0, tsRecon, dRecon)
		communities, err := s.levelInit()
		if err != nil {
			return nil, err
		}
		if s.checksEnabled() {
			if err := s.checkReconstruction(level, mBefore); err != nil {
				return nil, err
			}
		}
		// This rank's wire traffic attributable to the level just finished.
		nowBytes, nowRounds := s.c.BytesSent(), s.c.Rounds()
		levelBytes, levelRounds := nowBytes-prevBytes, nowRounds-prevRounds
		prevBytes, prevRounds = nowBytes, nowRounds
		if s.rec != nil {
			s.rec.Emit(obs.Event{
				Name: "level", Rank: s.part.Rank, Level: level,
				TS: tsLevel, Dur: s.now() - tsLevel,
				Fields: map[string]float64{
					"q":                q,
					"vertices":         float64(vertices),
					"communities":      float64(communities),
					"inner_iterations": float64(len(movesPerIter)),
					"comm_bytes":       float64(levelBytes),
					"comm_rounds":      float64(levelRounds),
					"recon_us":         float64(dRecon.Microseconds()),
					"in_entries":       float64(inStats.Entries),
					"in_slots":         float64(inStats.Slots),
					"in_load_factor":   inStats.LoadFactor,
					"in_avg_bin_len":   inStats.AvgBinLen,
					"in_max_bin_len":   float64(inStats.MaxBinLen),
					"in_mean_probe":    inStats.MeanProbe,
					"in_growths":       float64(inStats.Growths),
				},
			})
		}

		lv := Level{
			Q:               q,
			Vertices:        int(vertices),
			Communities:     int(communities),
			InnerIterations: len(movesPerIter),
			MovesPerIter:    movesPerIter,
		}
		if s.opt.CollectLevels {
			lv.Membership = append([]graph.V(nil), membership...)
		}
		res.Levels = append(res.Levels, lv)
		res.Q = q
		if level == 0 {
			res.FirstLevel = time.Since(start)
			if sim, ok := s.c.SimNow(); ok {
				res.SimFirstLevel = sim
			}
		}
		if communities == vertices || q-qLevelPrev < s.opt.MinGain {
			break
		}
		qLevelPrev = q
		vertices = communities
	}
	if s.opt.CollectLevels {
		res.Membership = membership
	}
	res.Duration = time.Since(start)
	if sim, ok := s.c.SimNow(); ok {
		res.SimDuration = sim
	}
	// Total traffic across the group (one extra collective each).
	bytes, err := s.c.AllReduceUint64(s.c.BytesSent(), comm.OpSum)
	if err != nil {
		return nil, err
	}
	res.CommBytes = bytes
	res.CommRounds = s.c.Rounds()
	s.planes.Release()
	s.planes = nil
	return res, nil
}
