package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
	"parlouvain/internal/wire"
)

// The refinement phase (Algorithm 4): the inner iteration loop of one level
// — find the best move per vertex, pick the global gain threshold, apply
// the admitted moves, re-propagate, and measure modularity — with the
// best-state snapshot/rollback that tolerates transient Q dips under stale
// parallel information.

// refineLevel runs the inner loop for one level, starting from modularity
// q0 (measured right after the level's full propagation), and returns the
// level's final modularity and per-iteration move counts. On exit the
// community state is the best one observed: if the loop ended below the
// best snapshot, the level is rolled back and re-propagated.
func (s *engine) refineLevel(level int, vertices uint64, q0 float64) (float64, []int, error) {
	q := q0
	s.snapshot(q)

	var movesPerIter []int
	sinceBest := 0
	qMilestone := q
	qBestLevel := q
	for iter := 1; iter <= s.opt.MaxInner; iter++ {
		if err := s.opt.canceled(); err != nil {
			return 0, nil, fmt.Errorf("core: %w at level %d iteration %d: %w", ErrCanceled, level, iter, err)
		}
		clk := s.clock(level, iter)
		iterStart, tsIter := clk.t0, clk.ts0
		s.findBest()
		tFind := clk.lap(perf.PhaseFindBest)

		dqHat, eps, err := s.threshold(iter, vertices)
		if err != nil {
			return 0, nil, err
		}
		tUpdate := clk.lap(perf.PhaseThreshold)
		moved, err := s.update(dqHat)
		if err != nil {
			return 0, nil, err
		}
		tUpdate += clk.lap(perf.PhaseUpdate)

		if err := s.propagateDelta(); err != nil {
			return 0, nil, err
		}
		tPropagation := clk.lap(perf.PhasePropagation)
		if s.opt.TraceTimings != nil && s.c.Rank() == 0 {
			s.opt.TraceTimings(level, iter, tFind, tUpdate, tPropagation)
		}

		qNew, err := s.computeQ()
		if err != nil {
			return 0, nil, err
		}
		clk.lap(perf.PhaseComputeQ)
		movesPerIter = append(movesPerIter, int(moved))
		if s.opt.TraceMoves != nil && s.c.Rank() == 0 {
			s.opt.TraceMoves(level, iter, int(moved), int(vertices))
		}
		if qNew > qBestLevel {
			qBestLevel = qNew
		}
		if s.rec != nil {
			s.rec.Emit(obs.Event{
				Name: "iteration", Rank: s.part.Rank, Level: level, Iter: iter,
				TS: tsIter, Dur: time.Since(iterStart).Microseconds(),
				Fields: map[string]float64{
					"moved":     float64(moved),
					"active":    float64(vertices),
					"eps":       eps,
					"dq_hat":    dqHat,
					"q":         qNew,
					"q_best":    qBestLevel,
					"find_us":   float64(tFind.Microseconds()),
					"update_us": float64(tUpdate.Microseconds()),
					"prop_us":   float64(tPropagation.Microseconds()),
				},
			})
		}
		if s.mIter != nil {
			s.mIter.Set(float64(iter))
			s.mQ.Set(qNew)
			s.mMoves.Add(moved)
			s.mIters.Inc()
		}
		improved := qNew - q
		q = qNew
		if !s.opt.Naive {
			if qNew > s.bestSnapQ {
				s.snapshot(qNew)
			}
			if qNew > qMilestone+s.opt.ProgressGain {
				qMilestone = qNew
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		if moved == 0 {
			break
		}
		// Transient Q dips are expected under stale parallel
		// information and recovered via the best-state snapshot; the
		// level ends when the best state stops improving. The naive
		// baseline has no snapshots and stops on lack of immediate
		// improvement, as in Algorithm 4.
		const patience = 5
		if !s.opt.Naive && sinceBest >= patience {
			break
		}
		if s.opt.Naive && improved < s.opt.MinGain {
			break
		}
	}
	if !s.opt.Naive && q < s.bestSnapQ {
		// Roll the level back to its best observed state before
		// reconstructing. All ranks observe the same reduced q and
		// restore the same snapshot iteration.
		s.restore()
		clk := s.clock(level, 0)
		if err := s.propagate(); err != nil {
			return 0, nil, err
		}
		clk.lap(perf.PhasePropagation)
		q = s.bestSnapQ
	}
	return q, movesPerIter, nil
}

// findBest is Algorithm 4 lines 4-9: for every owned active vertex, find
// the neighbor community with the highest relative modularity gain m_u
// over staying put — one sequential pass over the vertex's out row into the
// worker's dense accumulator, then Equation 4 per community touched.
//
// With Options.Prune the sweep recomputes only dirty vertices — those
// whose result inputs (own community, out row, or the Σtot/member counts of
// any referenced community) changed since their last sweep — and clean
// vertices keep their cached bestGain/bestTo. A vertex's result is a pure
// function of its row and those inputs, so the reuse is exact: pruned runs
// are bit-identical to full sweeps, which the differential suite pins. A
// full propagation or level start resets the tracking baseline via
// allDirty.
func (s *engine) findBest() {
	if s.dirty != nil && !s.allDirty {
		prunedSweeps.Add(1)
	}
	par.For(s.nLoc, s.opt.Threads, s.findBody)
	s.allDirty = false
}

// findBestRange is findBest over the local vertices [lo, hi) on worker t.
func (s *engine) findBestRange(t, lo, hi int) {
	sc := s.scan[t]
	prune := s.dirty != nil && !s.allDirty
	for li := lo; li < hi; li++ {
		if !s.active[li] || (prune && !s.dirty[li]) {
			continue
		}
		c0, ku := s.commOf[li], s.k[li]
		touched := s.gatherRow(sc, li)
		// Baseline: the gain of re-joining the current community.
		stay := dq(sc.w2c[c0]-s.self2[li], s.totCache[c0]-ku, ku, s.m)
		single := s.memCache[c0] == 1
		bestGain, bestTo := 0.0, c0
		for _, cc := range touched {
			if cc == c0 {
				continue
			}
			// Singleton minimum-label rule (Grappolo-style, the paper's
			// ref [11]): when a vertex alone in its community targets
			// another singleton community with a larger label, suppress
			// the move. Without this, symmetric pairs swap communities
			// forever and never merge.
			if cc > c0 && single && s.memCache[cc] == 1 {
				continue
			}
			g := dq(sc.w2c[cc], s.totCache[cc], ku, s.m) - stay
			if g > bestGain || (g == bestGain && g > 0 && cc < bestTo) {
				bestGain, bestTo = g, cc
			}
		}
		sc.dropRow()
		s.bestGain[li], s.bestTo[li] = bestGain, bestTo
		if s.dirty != nil {
			s.dirty[li] = false
		}
	}
}

// prunedSweeps counts findBest invocations that ran in pruned (dirty-only)
// mode across all engines — observability for the differential suite, which
// asserts the pruned path was actually exercised rather than every sweep
// degenerating to allDirty.
var prunedSweeps atomic.Uint64

// dq is Equation 4.
func dq(wUToC, sumTot, ku, m float64) float64 {
	return wUToC/m - sumTot*ku/(2*m*m)
}

// snapshot records the current level state as the best seen so far.
func (s *engine) snapshot(q float64) {
	if s.snapComm == nil {
		s.snapComm = make([]graph.V, s.nLoc)
		s.snapTot = make([]float64, s.nLoc)
		s.snapMembers = make([]int64, s.nLoc)
	}
	copy(s.snapComm, s.commOf)
	copy(s.snapTot, s.totOwn)
	copy(s.snapMembers, s.memOwn)
	s.bestSnapQ = q
}

// restore rolls the level back to the snapshotted best state.
func (s *engine) restore() {
	copy(s.commOf, s.snapComm)
	copy(s.totOwn, s.snapTot)
	copy(s.memOwn, s.snapMembers)
}

// threshold computes ΔQ̂ for this iteration: build the global gain
// histogram, then pick the cut that admits the top ε(iter) fraction of the
// active vertices (Section IV-B). It also returns the clamped ε for
// telemetry. Naive mode admits every positive gain.
func (s *engine) threshold(iter int, activeTotal uint64) (float64, float64, error) {
	if s.opt.Naive {
		// Still needs a collective so all ranks stay in lockstep on the
		// same number of exchange rounds per iteration.
		if err := s.c.Barrier(); err != nil {
			return 0, 0, err
		}
		return minMoveGain, 1, nil
	}
	var h gainHistogram
	for li := 0; li < s.nLoc; li++ {
		if s.active[li] && s.bestGain[li] > 0 {
			h.add(s.bestGain[li])
		}
	}
	if err := s.c.AllReduceUint64Slice(h.counts[:]); err != nil {
		return 0, 0, err
	}
	eps := s.opt.Epsilon(iter)
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	// The threshold limits *concurrent* movement; it must never block
	// the best moves outright, so the target floors at ~1% of the active
	// vertices (at least one): enough for the post-decay tail to make
	// real progress per iteration while still damping oscillation.
	target := uint64(eps * float64(activeTotal))
	if floor := activeTotal / 100; target < floor {
		target = floor
	}
	if target == 0 {
		target = 1
	}
	return h.threshold(target), eps, nil
}

// update is Algorithm 4 lines 13-15: apply the admitted moves and ship the
// Σtot deltas to the community owners.
func (s *engine) update(dqHat float64) (uint64, error) {
	p := s.outPlanes()
	var moved uint64
	s.moveLog = s.moveLog[:0]
	for li := 0; li < s.nLoc; li++ {
		if !s.active[li] {
			continue
		}
		g := s.bestGain[li]
		if g < dqHat || g < minMoveGain {
			continue
		}
		newC := s.bestTo[li]
		oldC := s.commOf[li]
		if newC == oldC {
			continue
		}
		s.commOf[li] = newC
		s.moveLog = append(s.moveLog, li)
		if s.dirty != nil {
			// The mover's own stay baseline is now stale.
			s.dirty[li] = true
		}
		moved++
		bo := p.To(s.part.Owner(oldC))
		bo.PutU32(uint32(oldC))
		bo.PutF64(-s.k[li])
		bn := p.To(s.part.Owner(newC))
		bn.PutU32(uint32(newC))
		bn.PutF64(s.k[li])
	}
	in, err := s.exchange(p)
	if err != nil {
		return 0, err
	}
	if err := s.applyTotDeltas(in); err != nil {
		return 0, err
	}
	return s.c.AllReduceUint64(moved, comm.OpSum)
}

// applyTotDeltas decodes a round of (community, ±k) planes, applying the
// Σtot and member-count deltas to this rank's owned communities, and
// releases the round. Shared by update and applyWarm, whose planes have the
// same shape.
func (s *engine) applyTotDeltas(in [][]byte) error {
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			cc := r.U32()
			d := r.F64()
			if err := r.Err(); err != nil {
				return err
			}
			li := s.part.LocalIndex(cc)
			s.totOwn[li] += d
			if d < 0 {
				s.memOwn[li]--
			} else {
				s.memOwn[li]++
			}
		}
	}
	wire.ReleasePlanes(in)
	return nil
}

// computeQ is Algorithm 4 lines 17-25 for a scalar result: Q needs only the
// sums over communities of Σin and Σtot², and each rank can add its share of
// both locally — the intra-community weight of its owned vertices' rows and
// the squared totals of its owned communities — so one reduction replaces
// the per-community Σin exchange.
func (s *engine) computeQ() (float64, error) {
	twoM := 2 * s.m
	qLocal := s.intraWeight() / twoM
	for li := 0; li < s.nLoc; li++ {
		if s.totOwn[li] > 0 {
			qLocal -= (s.totOwn[li] / twoM) * (s.totOwn[li] / twoM)
		}
	}
	return s.c.AllReduceFloat64(qLocal, comm.OpSum)
}

// intraWeight returns this rank's share of Σ_c Σin_c: the weight of every
// out-edge of an owned active vertex that ends in the vertex's own community
// (each intra-community edge is seen from both endpoints, self-loops arrive
// already doubled).
func (s *engine) intraWeight() float64 {
	var in float64
	for li := 0; li < s.nLoc; li++ {
		if !s.active[li] {
			continue
		}
		c0 := uint32(s.commOf[li])
		lo, hi := s.outOff[li], s.outOff[li+1]
		w := s.outW[lo:hi]
		for i, cc := range s.outComm[lo:hi] {
			// Whether a neighbor shares the community is a coin flip to the
			// branch predictor; masking the weight to +0 instead (the
			// compiler turns this into a conditional move) scans 3-4x faster.
			var keep uint64
			if cc == c0 {
				keep = ^uint64(0)
			}
			in += math.Float64frombits(math.Float64bits(w[i]) & keep)
		}
	}
	return in
}
