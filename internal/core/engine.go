package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
	"parlouvain/internal/wire"
)

// The parallel algorithm is organized as a pipeline of phase units over one
// shared engine state, one file per phase family:
//
//	engine.go      — engine state, the level loop (Algorithm 2), wire I/O
//	reconstruct.go — graph loading, the level's rows sorted out of its edge
//	               	 records, reconstruction (Algorithm 5) and assignment
//	               	 gathering
//	outrows.go     — the level's out rows: in-edge rows read through ghost,
//	               	 and the two indexes propagation is addressed by
//	propagate.go   — full and move-log state propagation + Σtot pull
//	               	 (Algorithm 3 / Equation 4 inputs)
//	refine.go      — the inner refinement loop: findBest, threshold, update,
//	               	 modularity (Algorithm 4)
//	warm.go        — warm-start seeding
//
// Each phase is an engine method with a small contract over the shared
// state, so variants compose without touching the loop: threshold switches
// between the ε-heuristic and the naive all-positive rule, and tests drive
// single phases (see bench_exchange_test.go, outrows_test.go) without a full
// Parallel run. All inter-rank payloads are encoded with the internal/wire
// codec through pooled per-destination planes.

// Parallel runs the distributed Louvain algorithm (Algorithm 2) as one rank
// of the group behind c. local is this rank's portion of the input in
// destination-owned orientation — entry (U=src, V=dst, W) with owner(dst)
// == rank — as produced by graph.SplitEdges (self-loops delivered once).
// The group's input must be symmetric: every undirected edge once per
// orientation, (u→v) at owner(v) and (v→u) at owner(u); a group handed
// anything else gets an error on every rank (levelInit). n is the global
// vertex count. Every rank receives an identical Result.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := CheckWarm(opt.Warm, n); err != nil {
		return nil, err
	}
	return newEngine(c, n, opt).run(local)
}

// engine is one rank's working state, shared by every phase unit. Vertex and
// community ids share the global id space [0,n); this rank owns ids
// congruent to its rank mod P and indexes them densely by id/P ("local
// index"). Rows are dealt to worker threads by local index (shardOf), so
// workers build and scan disjoint vertex sets.
type engine struct {
	c    *comm.Comm
	opt  Options
	part graph.Partition
	n    int
	nLoc int

	// The edge records (U=src → V=dst, dst owned) of the level being
	// assembled: pend[t] holds those whose row is worker t's, in arrival
	// order — the caller's input at level 0 (raw: self-loops not yet doubled,
	// and at one thread the caller's own list, read and never written), then
	// the supergraph in-edges reconstructMerge decodes. buildRows sorts them
	// into the in-edge CSR below; bySrc[t] and srcPos[t] are worker t's
	// scratch for that sort (the records by source, and its n+1 counters).
	pend   []graph.EdgeList
	raw    bool
	bySrc  []graph.EdgeList
	srcPos [][]int64

	// Margin-bounded skipping (findBest): skipUntil[li] is the value of drift
	// up to which li's sweep result is provably (0, commOf[li]) and need not
	// be recomputed; 0 or less means "score it". drift is the running sum, over
	// the level's Σtot pulls since the last full propagation, of the largest
	// |ΔΣtot| each pull brought to a referenced community. skipUntil[li] is
	// written by the sweep worker of li's range and, between sweeps, by
	// relocate and the one merge worker (spending it at skipRate, m/k made
	// 2⁻²⁰ larger, per unit of weight) — never two of them at once.
	// rowsEvaluated counts the rows findBest scored (Result.RowsEvaluated).
	skipUntil     []float64
	skipRate      []float64
	drift         float64
	rowsEvaluated atomic.Uint64

	// intra is this rank's share of Σ_c Σin_c, the quantity intraWeight
	// scans for: set by the scan after every full propagation, then kept
	// current by relocate (a mover's row against its old and new community)
	// and mergeRecords (a neighbor entering or leaving a row owner's
	// community), so computeQ costs O(owned communities) per iteration.
	intra float64

	// totCache and memCache hold Σtot and the member count of every
	// community this rank references — one that a neighbor of an owned
	// vertex is in or that holds an owned vertex — indexed by community id
	// and refreshed by the pull that ends each state propagation. refs lists
	// the referenced communities (refSeen is its membership test); it grows
	// with each first-seen record value and sheds communities a pull reports
	// empty.
	// Member counts feed the singleton minimum-label rule that breaks
	// symmetric swap cycles (see findBest).
	totCache     []float64
	memCache     []uint32
	refSeen      []bool
	refs         []uint32
	replyReaders []wire.Reader // one per peer, for replies that come back in request order

	active []bool
	commOf []graph.V
	k      []float64
	self2  []float64 // doubled self-loop weight of owned vertices
	totOwn []float64 // Σtot of owned communities
	memOwn []int64   // member count of owned communities

	// The level's graph: the CSR of the owned vertices' in-edges, rows
	// ascending by source, one entry per (src, dst) pair (buildRows). Entry e
	// of row li is the in-edge (adjSrc[e] → li) of weight adjW[e], self-loops
	// doubled. The level's graph is symmetric, so the same row is li's
	// out-edges (outrows.go): the far endpoint of entry e is adjSrc[e], and
	// the community it is in is ghost[adjSrc[e]].
	adjOff []int64
	adjSrc []graph.V
	adjW   []float64

	// ghost[v] is the community of vertex v as last told to this rank by
	// state propagation — for every v that is a neighbor of an owned vertex,
	// owned ones included: an owned vertex's move reaches its own rank's rows
	// through the self plane like anyone else's, so between an update and its
	// propagation ghost still holds what the rows were scored against.
	// Indexed by global id, like totCache.
	ghost []uint32

	// The two indexes propagation is addressed by, derived from the in-edge
	// CSR at levelInit (outrows.go). rev is its transpose: vertex v appears
	// in the owned rows revRow[revOff[v]:revOff[v+1]] (local indices,
	// ascending) with the weights revW. nbrRank[nbrOff[li]:nbrOff[li+1]] are
	// the ranks that own a neighbor of owned vertex li — who must be told
	// when li moves. cursor is the per-row fill position of buildRows;
	// rankSeen the per-rank stamp that keeps a rank list duplicate-free.
	revOff   []int64
	revRow   []uint32
	revW     []float64
	nbrOff   []int64
	nbrRank  []int32
	cursor   []int64
	rankSeen []int

	// scan[t] is worker t's neighbor-community accumulator: the same dense
	// weights + touched list the whole-graph engines use.
	scan []*gainScan

	// moveLog lists the local indices of the vertices the current iteration
	// moved, for the move-log propagation.
	moveLog []int

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
	// exchange-building pass and handed back when run returns.
	planes *wire.Planes

	// Scatter state (scatter.go): the per-thread send planes and the
	// per-merge-worker error slots, both reused across rounds.
	chunked   wire.ChunkedPlanes
	mergeErrs []error

	// Scatter callback plumbing. The per-phase build/merge callbacks and
	// the par.For bodies that wrap them are bound once at construction —
	// creating a method value or a capturing closure allocates, and doing
	// that inside propagate would put allocations back on the steady-state
	// round that the plane pooling works to keep allocation-free. curBuild
	// and curMerge select the active phase for the shared bodies; received
	// and readers carry the received round through mergeBody. findBody
	// is findBest's par.For body, bySrcBody and byRowBody are buildRows'.
	curBuild     func(t, lo, hi int, w *wire.Planes)
	curMerge     func(t int, r *wire.Reader) error
	buildBody    func(t, lo, hi int)
	mergeBody    func(t, lo, hi int)
	received     [][]byte
	readers      []wire.Reader
	propBuildFn  func(t, lo, hi int, w *wire.Planes)
	deltaBuildFn func(t, lo, hi int, w *wire.Planes)
	propMergeFn  func(t int, r *wire.Reader) error
	deltaMergeFn func(t int, r *wire.Reader) error
	reconBuildFn func(t, lo, hi int, w *wire.Planes)
	reconMergeFn func(t int, r *wire.Reader) error
	findBody     func(t, lo, hi int)
	bySrcBody    func(t, lo, hi int)
	byRowBody    func(t, lo, hi int)

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
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)
	s := &engine{
		c:         c,
		opt:       opt,
		part:      part,
		n:         n,
		nLoc:      nLoc,
		active:    make([]bool, nLoc),
		commOf:    make([]graph.V, nLoc),
		k:         make([]float64, nLoc),
		self2:     make([]float64, nLoc),
		totOwn:    make([]float64, nLoc),
		memOwn:    make([]int64, nLoc),
		totCache:  make([]float64, n),
		memCache:  make([]uint32, n),
		refSeen:   make([]bool, n),
		ghost:     make([]uint32, n),
		revOff:    make([]int64, n+1),
		rankSeen:  make([]int, c.Size()),
		bestTo:    make([]graph.V, nLoc),
		bestGain:  make([]float64, nLoc),
		skipUntil: make([]float64, nLoc),
		skipRate:  make([]float64, nLoc),
		bd:        perf.NewBreakdown(),
	}
	s.pend = make([]graph.EdgeList, opt.Threads)
	s.bySrc = make([]graph.EdgeList, opt.Threads)
	s.srcPos = make([][]int64, opt.Threads)
	s.scan = make([]*gainScan, opt.Threads)
	for t := 0; t < opt.Threads; t++ {
		s.srcPos[t] = make([]int64, n+1)
		s.scan[t] = newGainScan(n)
	}
	s.planes = wire.GetPlanes(c.Size())
	s.mergeErrs = make([]error, opt.Threads)
	s.readers = make([]wire.Reader, opt.Threads)
	s.replyReaders = make([]wire.Reader, c.Size())
	s.buildBody = func(t, lo, hi int) { s.curBuild(t, lo, hi, s.chunked.Writer(t)) }
	s.mergeBody = func(t, _, _ int) {
		r := &s.readers[t]
		for _, plane := range s.received {
			r.Reset(plane)
			if err := s.curMerge(t, r); err != nil {
				s.mergeErrs[t] = err
				return
			}
		}
	}
	s.propBuildFn = s.propagateBuild
	s.deltaBuildFn = s.deltaBuild
	s.propMergeFn = s.propagateMerge
	s.deltaMergeFn = s.deltaMerge
	s.reconBuildFn = s.reconstructBuild
	s.reconMergeFn = s.reconstructMerge
	s.findBody = s.findBestRange
	s.bySrcBody = func(t, _, _ int) { s.sortBySource(t) }
	s.byRowBody = func(t, _, _ int) { s.fillRows(t) }
	s.rec = opt.Recorder
	if reg := opt.Metrics; reg != nil {
		c.Instrument(reg)
		s.mLevel = reg.Gauge("louvain_level")
		s.mIter = reg.Gauge("louvain_iteration")
		s.mQ = reg.Gauge("louvain_modularity")
		s.mActive = reg.Gauge("louvain_active_vertices")
		s.mMoves = reg.Counter("louvain_moves_total")
		s.mIters = reg.Counter("louvain_iterations_total")
		reg.Gauge("louvain_threads").Set(float64(opt.Threads))
		reg.SetHelp("louvain_threads", "resolved per-rank worker thread count (-threads 0 auto-selects the CPU count)")
	}
	if s.rec != nil {
		// A zero-duration config marker pinning the group shape into the
		// event stream.
		s.rec.Emit(obs.Event{
			Name: "config", Rank: part.Rank, TS: s.rec.Now(),
			Fields: map[string]float64{
				"ranks":   float64(c.Size()),
				"threads": float64(opt.Threads),
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

// phaseClock times back-to-back phase units of one (level, iteration) cell.
type phaseClock struct {
	s           *engine
	level, iter int
	t0          time.Time
	ts0         int64
}

func (s *engine) clock(level, iter int) phaseClock {
	return phaseClock{s: s, level: level, iter: iter, t0: time.Now(), ts0: s.now()}
}

// lap closes the phase unit that ran since the clock started or last lapped:
// its wall time goes into the breakdown under phase and onto the Chrome-trace
// timeline as one slice, and the next unit starts now.
func (c *phaseClock) lap(phase string) time.Duration {
	now := time.Now()
	d := now.Sub(c.t0)
	c.s.bd.Add(phase, d)
	if rec := c.s.rec; rec != nil {
		rec.Emit(obs.Event{Name: phase, Rank: c.s.part.Rank, Level: c.level, Iter: c.iter, TS: c.ts0, Dur: d.Microseconds()})
		c.ts0 = rec.Now()
	}
	c.t0 = now
	return d
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

// run loads this rank's input and drives the outer loop (Algorithm 2): per
// level, a full propagation, the inner refinement loop, then reconstruction
// of the supergraph. The engine is spent when run returns, on any path.
func (s *engine) run(local graph.EdgeList) (*Result, error) {
	defer func() {
		s.planes.Release()
		s.planes = nil
	}()
	if err := s.loadLocal(local); err != nil {
		return nil, s.refuseInput(err)
	}
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
	localEdges := uint64(len(s.adjSrc))
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
		inEntries := len(s.adjSrc)
		if s.mLevel != nil {
			s.mLevel.Set(float64(level))
			s.mActive.Set(float64(vertices))
		}

		clk := s.clock(level, 0)
		if err := s.propagate(); err != nil {
			return nil, err
		}
		clk.lap(perf.PhasePropagation)
		q, err := s.computeQ()
		if err != nil {
			return nil, err
		}
		clk.lap(perf.PhaseComputeQ)

		q, movesPerIter, err := s.refineLevel(level, vertices, q)
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

		mBefore := s.m
		clk = s.clock(level, 0)
		if err := s.reconstruct(); err != nil {
			return nil, err
		}
		dRecon := clk.lap(perf.PhaseReconstruction)
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
					"in_entries":       float64(inEntries),
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
	// Group-wide totals (one extra collective).
	totals := []uint64{s.c.BytesSent(), s.rowsEvaluated.Load()}
	if err := s.c.AllReduceUint64Slice(totals); err != nil {
		return nil, err
	}
	res.CommBytes, res.RowsEvaluated = totals[0], totals[1]
	res.CommRounds = s.c.Rounds()
	return res, nil
}
