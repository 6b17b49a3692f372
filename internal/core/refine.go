package core

import (
	"fmt"
	"math"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
)

// The refinement phase (Algorithm 4): the inner iteration loop of one level
// — find the best move per vertex, pick the global gain threshold, apply
// the admitted moves, re-propagate, and measure modularity — with the
// best-state snapshot/rollback that tolerates transient Q dips under stale
// parallel information.

// refineLevel runs the inner loop for one level, starting from modularity
// q0 (measured right after the level's full propagation), and returns the
// level's final modularity, per-iteration move counts and why it stopped. On exit the
// community state is the best one observed: if the loop ended below the
// best snapshot, the level is rolled back and re-propagated.
//
// An iteration is three collective rounds: the gain histogram's reduction
// (threshold), which also yields the global move count and the admitted
// moves' gain mass; one exchange of the moves' Σtot deltas and (vertex,
// community) records (propagateDelta); and one of the owners' changed totals
// and every rank's modularity share (pushTotals). The admission floor for the
// next iteration (nextFloor) is decided from the reduced Q and mass, which
// every rank holds, so it costs no round.
func (s *engine) refineLevel(level int, vertices uint64, q0 float64) (float64, []int, Stop, error) {
	q := q0
	s.snapshot(q)

	// The heuristic's inner loop ends after patience iterations that each
	// failed to lift Q by progressGain over the last milestone, keeping its
	// best state.
	const (
		patience     = 5
		progressGain = 1e-4
	)
	var movesPerIter []int
	floorPct := floorStartPct
	sinceBest := 0
	qMilestone := q
	qBestLevel := q
	stop := StopMaxInner
	for iter := 1; iter <= s.opt.MaxInner; iter++ {
		if err := s.opt.canceled(); err != nil {
			return 0, nil, 0, fmt.Errorf("core: %w at level %d iteration %d: %w", ErrCanceled, level, iter, err)
		}
		clk := s.clock(level, iter)
		iterStart, tsIter := clk.t0, clk.ts0
		var rounds0, bytes0 uint64
		if s.rec != nil {
			rounds0, bytes0 = s.c.Rounds(), s.c.BytesSent()
		}
		s.findBest()
		clk.lap(perf.PhaseFindBest)

		dqHat, eps, moved, mass, err := s.threshold(iter, vertices, floorPct)
		if err != nil {
			return 0, nil, 0, err
		}
		clk.lap(perf.PhaseThreshold)
		if local := s.update(dqHat); s.checksEnabled() {
			if err := s.checkMoved(local, moved); err != nil {
				return 0, nil, 0, err
			}
		}
		clk.lap(perf.PhaseUpdate)

		if err := s.propagateDelta(); err != nil {
			return 0, nil, 0, err
		}
		clk.lap(perf.PhasePropagation)

		qNew, err := s.pushTotals()
		if err != nil {
			return 0, nil, 0, err
		}
		if a := auditSkips; a != nil {
			a.subscriptions(s)
		}
		clk.lap(perf.PhaseComputeQ)
		movesPerIter = append(movesPerIter, int(moved))
		if qNew > qBestLevel {
			qBestLevel = qNew
		}
		if s.rec != nil {
			s.rec.Emit(obs.Event{
				Name: "iteration", Rank: s.part.Rank, Level: level, Iter: iter,
				TS: tsIter, Dur: time.Since(iterStart).Microseconds(),
				Fields: map[string]float64{
					"moved":       float64(moved),
					"active":      float64(vertices),
					"eps":         eps,
					"dq_hat":      dqHat,
					"floor_pct":   float64(floorPct),
					"mass":        mass,
					"q":           qNew,
					"q_best":      qBestLevel,
					"comm_rounds": float64(s.c.Rounds() - rounds0),
					"comm_bytes":  float64(s.c.BytesSent() - bytes0),
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
		floorPct = nextFloor(floorPct, improved, mass)
		if !s.opt.Naive {
			if qNew > s.bestSnapQ {
				s.snapshot(qNew)
			}
			if qNew > qMilestone+progressGain {
				qMilestone = qNew
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		if moved == 0 {
			stop = StopConverged
			break
		}
		// Transient Q dips are expected under stale parallel
		// information and recovered via the best-state snapshot; the
		// level ends when the best state stops improving. The naive
		// baseline has no snapshots and stops on lack of immediate
		// improvement, as in Algorithm 4.
		if s.opt.Naive && improved < s.opt.MinGain || !s.opt.Naive && sinceBest >= patience {
			stop = StopPatience
			break
		}
	}
	if !s.opt.Naive && q < s.bestSnapQ {
		// Roll the level back to its best observed state before
		// reconstructing. All ranks observe the same reduced q and
		// restore the same snapshot iteration.
		if a := auditSkips; a != nil {
			a.rollback()
		}
		s.restore()
		clk := s.clock(level, 0)
		if _, err := s.propagate(); err != nil {
			return 0, nil, 0, err
		}
		clk.lap(perf.PhasePropagation)
		q = s.bestSnapQ
	}
	return q, movesPerIter, stop, nil
}

// findBest is Algorithm 4 lines 4-9: for every owned active vertex, find
// the neighbor community with the highest relative modularity gain m_u
// over staying put — one sequential pass over the vertex's out row into the
// worker's dense accumulator, then Equation 4 per community touched.
//
// The sweep pays only for vertices whose answer can have changed (skipRoom),
// D being the largest |ΔΣtot| of any community the rank references — what
// pushTotals adds to drift. A sweep that finds every other community in u's
// row strictly worse than staying stores u's horizon in skipUntil[u]; later
// sweeps skip u while drift stays below it. Communities the singleton and
// return rules suppress count toward the margin, because a member count can
// change, or the return rule lapse, and lift the suppression; so does every
// community not in the row, whose gain
// over staying is at most 0 − stay while no Σtot is negative (checkEdge): the
// margin is min(−rival, stay). A change to u's row spends the horizon by what
// it can lift a gain (mergeRecords); u's move (relocate) clears the mark, and
// a full propagation clears them all; a vertex with a positive gain is never
// marked. So bestGain and bestTo — and with them the histogram, ΔQ̂ and the
// admitted set — are bit-for-bit those of a sweep that scores everyone.
//
// Each worker also counts the positive gains it finds into its own gain
// histogram (hist), which threshold reduces: a skipped vertex holds a zero
// gain, so the counts are those of a pass over every active vertex.
//
// Each worker lists, too, the rows it scored with a positive gain (gainers),
// the only rows update can move.
func (s *engine) findBest() {
	clear(s.hist)
	for t := range s.gainers {
		s.gainers[t] = s.gainers[t][:0]
	}
	par.For(s.nLoc, s.opt.Threads, s.findBody)
}

const (
	// skipSlack is taken off a vertex's margin, in units of k_u/m, before
	// the margin is turned into a drift horizon. Both terms of Equation 4
	// are at most k_u/m in magnitude, so one gain evaluation is off by at
	// most ~16 roundings of 2⁻⁵³·k_u/m; the slack is several thousand times
	// the error of the two evaluations compared. Rounding the row sums w_c adds
	// 2⁻⁵³·k_u/m per row entry, 2⁻⁵³·m of drift, which findBestRange takes off
	// par-louvain's horizon twice: its marks outlive changes to the row.
	skipSlack = 0x1p-40
	// skipSafety shortens the horizon by a relative 2⁻²⁰, far above the
	// relative rounding of the horizon arithmetic and of drift's running sum.
	skipSafety = 1 - 0x1p-20
)

// findBestRange is findBest over the local vertices [lo, hi) on worker t.
func (s *engine) findBestRange(t, lo, hi int) {
	sc, h := s.scan[t], &s.hist[t]
	var scored uint64
	for li := lo; li < hi; li++ {
		if !s.active[li] {
			continue
		}
		if s.drift < s.skipUntil[li] {
			// bestGain/bestTo still hold (0, c0) from the sweep that set the mark.
			if a := auditSkips; a != nil {
				a.rescore(s, sc, li)
			}
			continue
		}
		scored++
		var rival, stay float64
		s.bestGain[li], s.bestTo[li], rival, stay = s.score(sc, li)
		if s.bestGain[li] > 0 {
			h.add(s.bestGain[li])
			s.gainers[t] = append(s.gainers[t], li)
		}
		d := float64(s.adjOff[li+1] - s.adjOff[li])
		until := 0.0
		if room := skipRoom(min(-rival, stay), s.m, s.k[li]) - d*0x1p-52*s.m; room > 0 {
			until = s.drift + room
		}
		s.skipUntil[li] = until
	}
	s.rowsEvaluated.Add(scored)
}

// skipRoom is the horizon both engine families skip a row by. With the row
// and community c0 fixed, g_c = [(w_c − w_c0 + self) − (k_u/2m)(Σtot_c −
// Σtot_c0 + k_u)] / m moves by at most (k_u/m²)·D while neither total moves by
// more than D, so a vertex whose best other community sits margin below the
// gain it needs to move keeps its answer until D has grown by margin·m²/k_u:
// skipRoom returns that less skipSlack and skipSafety, or 0 unless margin and
// m are positive and m is finite.
func skipRoom(margin, m, k float64) float64 {
	if room := (margin*m/k - skipSlack) * m * skipSafety; margin > 0 && m > 0 && m <= math.MaxFloat64 && room > 0 {
		return room
	}
	return 0
}

// score evaluates local vertex li: its best move (gain over staying and
// target; (0, its own community) when nothing beats staying); rival, the
// largest gain over staying of any other community in its row — −Inf when
// there is none — including those the singleton and return rules keep it
// from joining; and stay, the gain of re-joining its own community.
// It consumes each sum as it reads it: a community listed twice (gainScan)
// reads 0 ≤ its sum on its second visit, no weight being negative (loadLocal),
// and that visit can neither win, tie nor raise the rival. The rules can only
// suppress a winner, so they are tested for a would-be winner only.
func (s *engine) score(sc *gainScan, li int) (bestGain float64, bestTo graph.V, rival, stay float64) {
	c0, ku, lo, hi := s.commOf[li], s.k[li], s.adjOff[li], s.adjOff[li+1]
	touched := sc.gather(s.adjSrc[lo:hi], s.adjW[lo:hi], s.ghost)
	w2c, tot, mem, m := sc.w2c, s.totCache, s.memCache, s.m
	stay = metrics.DeltaQ(w2c[c0]-s.self2[li], tot[c0]-ku, ku, m)
	single, back, twoMM := mem[c0] == 1, s.left[li], 2*m*m
	bestGain, bestTo = 0.0, c0
	// The rival is a branch-free maximum over orderBits keys, as in gainScan.best.
	other := int64(orderBits(math.Float64bits(math.Inf(-1))))
	for _, cc := range touched {
		if cc == c0 {
			continue
		}
		g := (w2c[cc]/m - tot[cc]*ku/twoMM) - stay // metrics.DeltaQ's operations
		w2c[cc] = 0
		other = max(other, int64(orderBits(math.Float64bits(g))))
		if g > bestGain || (g == bestGain && g > 0 && cc < bestTo) {
			// Singleton minimum-label rule (Grappolo-style, the paper's ref
			// [11]): a vertex alone in its community may not join another
			// singleton with a larger label, or symmetric pairs swap forever.
			// Return rule, the same for any two-cycle: a vertex that moved in
			// the last update may not go straight back into the community it
			// left when that label is larger, so of two neighbours that
			// swapped, one returns and the pair merges.
			if cc > c0 && (single && mem[cc] == 1 || cc == back) {
				continue
			}
			bestGain, bestTo = g, cc
		}
	}
	w2c[c0] = 0
	return bestGain, bestTo, math.Float64frombits(orderBits(uint64(other))), stay
}

// auditSkips, when non-nil, makes every engine in the process prove its
// shortcuts as it runs: findBest and sweepLevel re-score each vertex they
// skip (a vertex that would move is a failure), refineLevel counts the levels
// it rolls back and, after every pushTotals, holds each rank's cached totals
// and the owners' subscriber lists to the owners' state (one extra round), and
// localQ compares the running Σin with a fresh scan. Set only by tests, which
// implement it.
var auditSkips interface {
	rescore(s *engine, sc *gainScan, li int)
	rescoreRow(sc *gainScan, wg *graph.Graph, comm []graph.V, tot []float64, u graph.V)
	rollback()
	subscriptions(s *engine)
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

// threshold computes ΔQ̂ for this iteration: reduce the gain histograms
// findBest's workers filled to the global one, then pick the cut that admits
// the top ε(iter) fraction of the active vertices (Section IV-B), or
// floorPct % of them when that is more. It also returns the clamped ε for
// telemetry, and from the reduced histogram the number of vertices update will
// move across the group (gainHistogram.admitted) and the lower bound on their
// predicted gain (gainHistogram.mass). Naive mode admits every positive gain;
// it reduces the histogram for that count.
func (s *engine) threshold(iter int, activeTotal uint64, floorPct int) (dqHat, eps float64, moved uint64, mass float64, err error) {
	h := s.hist[0]
	for _, ht := range s.hist[1:] {
		for i, c := range ht.counts {
			h.counts[i] += c
		}
	}
	if err := s.c.AllReduceUint64Slice(h.counts[:]); err != nil {
		return 0, 0, 0, 0, err
	}
	if s.opt.Naive {
		return minMoveGain, 1, h.total(), 0, nil
	}
	eps = epsilon(iter)
	// The threshold limits *concurrent* movement; it must never block
	// the best moves outright, so the target floors at floorPct % of the
	// active vertices (at least one).
	target := uint64(eps * float64(activeTotal))
	if floor := activeTotal * uint64(floorPct) / 100; target < floor {
		target = floor
	}
	if target == 0 {
		target = 1
	}
	dqHat = h.threshold(target)
	return dqHat, eps, h.admitted(dqHat), h.mass(dqHat), nil
}

// epsilon is the convergence heuristic of Equation 7, the fraction of the
// active vertices threshold admits in inner iteration iter (1-based):
// ε(iter) = p1·e^(−iter/p2) with p1 = 1 (the first iteration moves everything
// useful) and p2 = 2 (the fraction roughly halves every 1.4 iterations), the
// regression result of the Figure 2 harness on LFR graphs with μ ∈ [0.2, 0.6].
// See DESIGN.md on the Equation 7 typo.
func epsilon(iter int) float64 {
	return math.Exp(-float64(iter) / 2)
}

// The admission floor: the share of the active vertices, in percent, that
// threshold admits however far ε(iter) has decayed. It starts every level at
// floorStartPct and grows while concurrent moves pay (nextFloor).
const (
	// floorStartPct is the fixed floor the rule grows from: enough for the
	// post-decay tail to make progress while still damping oscillation. Until
	// the floor first grows, the engine admits what the fixed floor admitted.
	floorStartPct = 1
	// floorMaxPct caps the floor at about ε(5) of the default decay (8.2 %):
	// the floor never admits more than the decay still did once the first
	// wave of moves has settled.
	floorMaxPct = 8
	// floorGrowth is the factor the floor grows by per paying iteration:
	// from 1 % to the cap in three paying iterations in a row.
	floorGrowth = 2
)

// nextFloor returns the admission floor for the iteration after one that ran
// at floor pct, raised Q by dq and admitted moves of gain mass (threshold).
// The moves were decided on one stale snapshot; when dq is positive and at
// least their expected gain, they did not interfere, and the floor grows by
// floorGrowth, up to floorMaxPct; otherwise it returns to floorStartPct. The
// expected gain is mass·log₂e: a gain counted in bin i lies in [2^(i−40),
// 2^(i−39)), and one spread log-uniformly over that range has mean
// 2^(i−40)/ln 2. Held to the mass itself, an iteration whose moves realised
// only ln 2 ≈ 69 % of their predicted gain would still count as paying.
func nextFloor(pct int, dq, mass float64) int {
	if dq > 0 && dq >= math.Log2E*mass {
		return min(pct*floorGrowth, floorMaxPct)
	}
	return floorStartPct
}

// update is Algorithm 4 lines 13-15 on this rank: apply the admitted moves
// (relocate), logging each for propagateDelta, which ships their Σtot deltas
// with the move records. It returns the number of vertices it moved. Only a
// row findBest scored with a positive gain can be admitted, so update walks
// the workers' gainers lists in worker order — the rows in ascending order,
// as a walk over every row would meet them.
func (s *engine) update(dqHat float64) uint64 {
	var moved uint64
	for _, li := range s.moveLog {
		s.left[li] = 0 // the return rule lapses after one iteration
	}
	s.moveLog = s.moveLog[:0]
	for _, rows := range s.gainers {
		for _, li := range rows {
			g, newC := s.bestGain[li], s.bestTo[li]
			if g < dqHat || g < minMoveGain || newC == s.commOf[li] {
				continue
			}
			s.relocate(li, newC)
			moved++
		}
	}
	return moved
}

// checkMoved holds the group's move count taken from the gain histogram to
// an explicit reduction of the ranks' own counts (one extra round, with
// invariant checks on).
func (s *engine) checkMoved(local, fromHistogram uint64) error {
	moved, err := s.c.AllReduceUint64(local, comm.OpSum)
	if err != nil {
		return err
	}
	if moved != fromHistogram {
		return fmt.Errorf("%w: rank %d: the gain histogram admits %d moves, the ranks made %d",
			ErrInvariant, s.part.Rank, fromHistogram, moved)
	}
	return nil
}

// relocate moves owned vertex li into community newC, not the one it is in:
// the assignment, the move log, and Σin — the weight of li's row into its old
// community leaves it and the weight into the new one enters, as ghost
// stands before the move is propagated. As newC ≠ oldC, at most one mask
// keeps w, and in + (+0 − w) is in − w bit for bit with one add on in's
// chain. Only a vertex the sweep just scored can be admitted, so its skip
// mark is clear already; it is cleared here for callers that move vertices
// by fiat.
func (s *engine) relocate(li int, newC graph.V) {
	oldC, nc := uint32(s.commOf[li]), uint32(newC)
	lo, hi := s.adjOff[li], s.adjOff[li+1]
	w, in := s.adjW[lo:hi], s.intra
	for i, v := range s.adjSrc[lo:hi] {
		in += keepIf(w[i], s.ghost[v] == nc) - keepIf(w[i], s.ghost[v] == oldC)
	}
	s.intra = in
	s.commOf[li] = newC
	s.moveLog = append(s.moveLog, li)
	s.left[li] = graph.V(oldC)
	s.skipUntil[li] = 0
}

// computeQ is Algorithm 4 lines 17-25 for a scalar result, as one reduction
// of the ranks' shares (localQ). The engine itself folds the same shares in
// rounds that run anyway — a full propagation's pull (pullTotals) and the
// inner loop's push (pushTotals); the invariant checker calls computeQ.
func (s *engine) computeQ() (float64, error) {
	q, err := s.localQ()
	if err != nil {
		return 0, err
	}
	return s.c.AllReduceFloat64(q, comm.OpSum)
}

// localQ is this rank's share of the modularity: Q needs only the sums over
// communities of Σin and Σtot², and each rank can add its share of both
// locally — the running intra-community weight of its owned vertices' rows
// and the squared totals of its owned communities — so no per-community Σin
// exchange is needed.
func (s *engine) localQ() (float64, error) {
	if auditSkips != nil {
		if err := s.checkIntra(); err != nil {
			return 0, err
		}
	}
	twoM := 2 * s.m
	q := s.intra / twoM
	for li := 0; li < s.nLoc; li++ {
		if s.totOwn[li] > 0 {
			q -= (s.totOwn[li] / twoM) * (s.totOwn[li] / twoM)
		}
	}
	return q, nil
}

// intraWeight returns this rank's share of Σ_c Σin_c: the weight of every
// out-edge of an owned vertex that ends in the vertex's own community (each
// intra-community edge is seen from both endpoints, self-loops arrive
// already doubled).
func (s *engine) intraWeight() float64 {
	var in float64
	for li := 0; li < s.nLoc; li++ {
		c0 := uint32(s.commOf[li])
		lo, hi := s.adjOff[li], s.adjOff[li+1]
		w := s.adjW[lo:hi]
		for i, v := range s.adjSrc[lo:hi] {
			in += keepIf(w[i], s.ghost[v] == c0)
		}
	}
	return in
}

// keepIf returns w if keep holds and +0 if not, by a conditional move: whether
// a neighbor is in a given community is a coin flip to the branch predictor.
// Adding or taking +0 leaves a sum as it was unless the sum is −0, which Σin
// never is: it starts at +0 and no weight is negative.
func keepIf(w float64, keep bool) float64 {
	var mask uint64
	if keep {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(w) & mask)
}
