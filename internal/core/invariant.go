package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// Algorithm-invariant verification. The parallel algorithm maintains a set
// of algebraic invariants that hold at every level boundary no matter how
// ranks interleave (the cross-validation style of Lu & Halappanavar and
// Staudt & Meyerhenke for parallel community-detection variants):
//
//  1. Mass conservation — Σ_c Σtot_c == 2m: vertex moves shuffle degree
//     mass between communities but never create or destroy it, and
//     Σ_c Σin_c (double-counted intra-community weight) never exceeds 2m.
//  2. Member conservation — Σ_c |c| equals the level's active vertex
//     count: the ±1 bookkeeping of update() loses nobody.
//  3. Agreement — after an all-gather, every rank holds the identical
//     assignment vector (compared by hash through a min/max reduction).
//  4. Consistency — the engine's incrementally-maintained modularity
//     equals a from-scratch recomputation over the current tables.
//  5. Monotonicity — level-final modularity never decreases across levels
//     (Section IV-B's convergence claim), within floating-point tolerance.
//  6. Weight preservation — graph reconstruction (Algorithm 5) preserves
//     total edge weight: m is identical at every level.
//  7. In-edge consistency — the in-edge rows are what buildRows left: every
//     row strictly ascending by source (so no pair twice), every source
//     inside the id space, every weight finite, and every row's weights sum
//     to its vertex's degree.
//  8. Out-row consistency — every in-edge (u→v, w) has its twin (v→u) at
//     owner(u), named exactly once and of equal weight, so a row of in-edges
//     is its vertex's out-edges; ghost holds, for every row entry, the
//     community of the entry's source in the all-gathered assignment;
//     modularity recomputed from the rows and the gathered assignment alone
//     equals the engine's; and the running Σin computeQ reads equals a fresh
//     scan of the rows.
//
// Checks run when Options.CheckInvariants is set (the -check flag of
// cmd/louvain and cmd/louvaind) and in every core test. Each check folds
// only globally-identical values, so all ranks reach the same verdict and
// a violation aborts the whole group without desynchronizing collectives.

// ErrInvariant tags invariant-violation failures; unwrap with errors.Is.
var ErrInvariant = errors.New("core: algorithm invariant violated")

// forceInvariantChecks turns checking on for every engine regardless of
// Options. Core's TestMain sets it so the whole test suite runs verified.
var forceInvariantChecks bool

// debugBreakReconstruct deliberately corrupts reconstruction on rank 0 —
// only ever set by the negative test proving the checker catches it.
var debugBreakReconstruct bool

// debugBreakOutRow deliberately corrupts the ghost entry behind rank 0's
// first row entry at the end of every level, likewise only for the negative
// test.
var debugBreakOutRow bool

// invariantTol is the relative tolerance of the floating-point checks.
const invariantTol = 1e-6

func (s *engine) checksEnabled() bool {
	return s.opt.CheckInvariants || forceInvariantChecks
}

// checkLevel verifies invariants 1–5, 7 and 8 at the end of a level: q is the
// level-final modularity refineLevel settled on, qPrev the previous level's
// (math.Inf(-1) for the first), vertices the level's active vertex count.
func (s *engine) checkLevel(level int, vertices uint64, q, qPrev float64) error {
	twoM := 2 * s.m
	tol := invariantTol * math.Max(1, twoM)

	// (4) Consistency: recompute Q from the live rows and totals.
	qCheck, err := s.computeQ()
	if err != nil {
		return err
	}
	if math.Abs(qCheck-q) > invariantTol*math.Max(1, math.Abs(q)) {
		return fmt.Errorf("%w: rank %d level %d: engine modularity %.12g != recomputed %.12g",
			ErrInvariant, s.part.Rank, level, q, qCheck)
	}

	// (1) Mass conservation.
	var sumTot float64
	for li := 0; li < s.nLoc; li++ {
		sumTot += s.totOwn[li]
	}
	if sumTot, err = s.c.AllReduceFloat64(sumTot, comm.OpSum); err != nil {
		return err
	}
	sumIn, err := s.c.AllReduceFloat64(s.intraWeight(), comm.OpSum)
	if err != nil {
		return err
	}
	if math.Abs(sumTot-twoM) > tol {
		return fmt.Errorf("%w: rank %d level %d: Σ community tot degrees = %.12g, want 2m = %.12g",
			ErrInvariant, s.part.Rank, level, sumTot, twoM)
	}
	if sumIn < -tol || sumIn > twoM+tol {
		return fmt.Errorf("%w: rank %d level %d: Σ community in degrees = %.12g outside [0, 2m = %.12g]",
			ErrInvariant, s.part.Rank, level, sumIn, twoM)
	}

	// (2) Member conservation.
	var members int64
	for li := 0; li < s.nLoc; li++ {
		members += s.memOwn[li]
	}
	total, err := s.c.AllReduceFloat64(float64(members), comm.OpSum)
	if err != nil {
		return err
	}
	if total != float64(vertices) {
		return fmt.Errorf("%w: rank %d level %d: community member counts sum to %g, want %d active vertices",
			ErrInvariant, s.part.Rank, level, total, vertices)
	}

	// (3) Agreement: every rank's gathered assignment vector must hash
	// identically.
	full, err := s.gatherAssignments()
	if err != nil {
		return err
	}
	h := fnv.New64a()
	var b [4]byte
	for _, c := range full {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	digest := h.Sum64()
	lo, err := s.c.AllReduceUint64(digest, comm.OpMin)
	if err != nil {
		return err
	}
	hi, err := s.c.AllReduceUint64(digest, comm.OpMax)
	if err != nil {
		return err
	}
	if lo != hi {
		return fmt.Errorf("%w: rank %d level %d: assignment vectors disagree across ranks post-AllGather (hash %016x, group range [%016x, %016x])",
			ErrInvariant, s.part.Rank, level, digest, lo, hi)
	}

	// (7) In-edge consistency (rank-local, no collectives).
	if err := s.checkInEdges(level); err != nil {
		return err
	}

	// (8) Out-row consistency.
	if debugBreakOutRow && s.part.Rank == 0 && len(s.adjSrc) > 0 {
		s.ghost[s.adjSrc[0]] = (s.ghost[s.adjSrc[0]] + 1) % uint32(s.n)
	}
	if err := s.checkOutRows(level, q, full); err != nil {
		return err
	}

	// (5) Monotonicity across levels. The naive baseline is exempt: without
	// best-state snapshots a level may legitimately end below its start when
	// simultaneous moves oscillate (the Figure 4 pathology the heuristic
	// exists to fix).
	if !s.opt.Naive && !math.IsInf(qPrev, -1) && q < qPrev-invariantTol {
		return fmt.Errorf("%w: rank %d level %d: modularity decreased across levels: %.12g -> %.12g",
			ErrInvariant, s.part.Rank, level, qPrev, q)
	}
	return nil
}

// checkInEdges verifies invariant 7 on this rank's rows — what the out rows
// and every phase of the level read: ascending without a repeat, sources in
// the id space, weights finite, and each row summing to its vertex's degree.
func (s *engine) checkInEdges(level int) error {
	tol := invariantTol * math.Max(1, 2*s.m)
	for li := 0; li < s.nLoc; li++ {
		var rowW float64
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			u, w := s.adjSrc[e], s.adjW[e]
			if int(u) >= s.n || w-w != 0 || e > s.adjOff[li] && s.adjSrc[e-1] >= u {
				return fmt.Errorf("%w: rank %d level %d: entry %d of the row of vertex %d has source %d and weight %v: rows are ascending by source, inside %d ids, of finite weight",
					ErrInvariant, s.part.Rank, level, e-s.adjOff[li], s.part.GlobalID(li), u, w, s.n)
			}
			rowW += w
		}
		if math.Abs(rowW-s.k[li]) > tol {
			return fmt.Errorf("%w: rank %d level %d: out row of vertex %d weighs %.12g, its degree is %.12g",
				ErrInvariant, s.part.Rank, level, s.part.GlobalID(li), rowW, s.k[li])
		}
	}
	return nil
}

// checkOutRows verifies invariant 8 against full, the all-gathered
// assignment. One exchange names every in-edge (u→v, w) to owner(u), which
// must hold the twin (v→u) — found, named by no other in-edge, of equal
// weight within invariantTol (the two were summed in different orders) — and
// must in turn have every in-edge of its own named: the symmetry a row of
// in-edges is read as out-edges on, weights included. Each row entry must
// then read, through ghost, the community its source has in full. Q is
// rebuilt from nothing but the rows and full: Σin from the entries whose two
// endpoints share a community, Σtot of a community from the row weights of
// its members. All ranks fold the verdict through one reduction so a
// violation seen by one aborts them together.
func (s *engine) checkOutRows(level int, q float64, full []graph.V) error {
	p := s.outPlanes()
	for li := 0; li < s.nLoc; li++ {
		v := uint32(s.part.GlobalID(li))
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			u := s.adjSrc[e]
			p.To(s.part.Owner(u)).PutTriple(wire.Triple{A: u, B: v, W: s.adjW[e]})
		}
	}
	in, err := s.exchange(p)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(in)
	var bad error
	fail := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf("%w: rank %d level %d: "+format, append([]any{ErrInvariant, s.part.Rank, level}, args...)...)
		}
	}
	named, namedCount := make([]bool, len(s.adjSrc)), 0
	var r wire.Reader
	for src, plane := range in {
		r.Reset(plane)
		for r.More() {
			e := r.Triple() // in-edge (e.A→e.B) of rank src; its twin (e.B→e.A) is an in-edge of e.A, held here
			if r.Err() != nil {
				return r.Err()
			}
			if int(e.A) >= s.n || int(e.B) >= s.n || !s.part.Owns(e.A) {
				fail("rank %d names in-edge (%d→%d), whose twin cannot be here (%d ids)", src, e.A, e.B, s.n)
				continue
			}
			li := s.part.LocalIndex(e.A)
			row := s.adjSrc[s.adjOff[li]:s.adjOff[li+1]]
			i, ok := slices.BinarySearch(row, e.B)
			if !ok {
				fail("in-edge (%d→%d) of rank %d has no twin (%d→%d) here: the out rows are read off a graph that is not symmetric", e.A, e.B, src, e.B, e.A)
				continue
			}
			twin := int(s.adjOff[li]) + i
			if named[twin] {
				fail("in-edge (%d→%d) is named as a twin by two in-edges of rank %d", e.B, e.A, src)
				continue
			}
			named[twin] = true
			namedCount++
			if w := s.adjW[twin]; math.Abs(w-e.W) > invariantTol*math.Max(1, math.Abs(w)) {
				fail("in-edge (%d→%d) weighs %.12g at rank %d, its twin in the out row of vertex %d weighs %.12g", e.A, e.B, e.W, src, e.A, w)
			}
		}
	}
	if namedCount != len(s.adjSrc) {
		fail("%d of the %d in-edges the out rows are read off were named by a twin", namedCount, len(s.adjSrc))
	}

	rowTot := make([]float64, s.n)
	var sumIn float64
	for li := 0; li < s.nLoc; li++ {
		v := s.part.GlobalID(li)
		if int(v) >= s.n {
			break // padding past the last owned vertex
		}
		var rowW float64
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			u := s.adjSrc[e]
			if s.ghost[u] != uint32(full[u]) {
				fail("out row of vertex %d reads community %d for its neighbor %d, which is in %d", v, s.ghost[u], u, full[u])
			}
			rowW += s.adjW[e]
			if full[u] == full[v] {
				sumIn += s.adjW[e]
			}
		}
		rowTot[full[v]] += rowW
	}
	if err := s.checkIntra(); err != nil && bad == nil {
		bad = err
	}
	ok, err := s.c.AllReduceAnd(bad == nil)
	if err != nil {
		return err
	}
	if !ok {
		if bad == nil {
			bad = fmt.Errorf("%w: rank %d level %d: out rows inconsistent on another rank", ErrInvariant, s.part.Rank, level)
		}
		return bad
	}

	if err := s.c.AllReduceFloat64Slice(rowTot); err != nil {
		return err
	}
	if sumIn, err = s.c.AllReduceFloat64(sumIn, comm.OpSum); err != nil {
		return err
	}
	twoM := 2 * s.m
	qRows := sumIn / twoM
	for _, tot := range rowTot {
		qRows -= (tot / twoM) * (tot / twoM)
	}
	if math.Abs(qRows-q) > invariantTol*math.Max(1, math.Abs(q)) {
		return fmt.Errorf("%w: rank %d level %d: engine modularity %.12g != %.12g recomputed from the out rows and the gathered assignment",
			ErrInvariant, s.part.Rank, level, q, qRows)
	}
	return nil
}

// checkIntra compares the running Σin with a fresh scan of the rows: equal
// to the bit when every edge weight is an integer (sums of integers are
// exact in any order), within 1e-12 relative otherwise.
func (s *engine) checkIntra() error {
	scan := s.intraWeight()
	if s.intra == scan {
		return nil
	}
	integral := true
	for _, w := range s.adjW {
		if w != math.Trunc(w) {
			integral = false
			break
		}
	}
	if !integral && math.Abs(s.intra-scan) <= 1e-12*math.Max(1, math.Abs(scan)) {
		return nil
	}
	return fmt.Errorf("%w: rank %d: running intra-community weight %.17g != %.17g scanned from the out rows",
		ErrInvariant, s.part.Rank, s.intra, scan)
}

// checkReconstruction verifies invariant 6 right after the next level's
// levelInit re-derived m from the reconstructed records: Algorithm 5 must
// preserve the total edge weight exactly (up to reduction rounding).
func (s *engine) checkReconstruction(level int, mPrev float64) error {
	if math.Abs(s.m-mPrev) > invariantTol*math.Max(1, mPrev) {
		return fmt.Errorf("%w: rank %d level %d: reconstruction changed total edge weight: m %.12g -> %.12g",
			ErrInvariant, s.part.Rank, level, mPrev, s.m)
	}
	return nil
}
