package core

import (
	"fmt"
	"math"

	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// State propagation (Algorithm 3): the phase that tells every rank which
// community each neighbor of its owned vertices is in, as 8-byte
// (vertex, community) records into ghost (outrows.go), followed by the
// Σtot/member pull Equation 4 needs. It comes in two builds over one record
// shape and one merge: propagate tells of every owned vertex (level start,
// warm start, rollback), propagateDelta only of the vertices the last update
// moved (every inner iteration).

// propagate tells every rank that owns a neighbor of an owned vertex u which
// community u is in, rebuilds the set of communities this rank references
// from what arrives, and pulls their Σtot and member counts from their
// owners.
func (s *engine) propagate() error {
	for _, cc := range s.refs {
		s.refSeen[cc] = false
	}
	s.refs = s.refs[:0]
	if err := s.scatter(s.nLoc, s.propBuildFn, s.propMergeFn); err != nil {
		return err
	}
	// An owned vertex also reads the totals of the community it is in.
	for li := 0; li < s.nLoc; li++ {
		if s.active[li] {
			s.reference(uint32(s.commOf[li]))
		}
	}
	if err := s.pullTotals(); err != nil {
		return err
	}
	// Every row and every cached total was just replaced, so what the inner
	// loop carries from iteration to iteration starts over: the next sweep
	// scores every vertex, and Σin is re-scanned (which also sheds the
	// rounding a running sum of fractional weights picks up).
	clear(s.skipUntil)
	s.drift = 0
	s.intra = s.intraWeight()
	return nil
}

// propagateDelta tells only of the vertices that changed community in the
// last update. The totals are re-pulled for
// the whole reference set: they change even for communities whose
// membership this rank did not touch.
func (s *engine) propagateDelta() error {
	if err := s.scatter(len(s.moveLog), s.deltaBuildFn, s.deltaMergeFn); err != nil {
		return err
	}
	return s.pullTotals()
}

// propagateBuild encodes the records of a contiguous range of owned
// vertices.
func (s *engine) propagateBuild(_, lo, hi int, w *wire.Planes) {
	for li := lo; li < hi; li++ {
		if s.active[li] {
			s.shipRow(li, w)
		}
	}
}

// deltaBuild encodes the records of a contiguous range of the move log.
func (s *engine) deltaBuild(_, lo, hi int, w *wire.Planes) {
	for _, li := range s.moveLog[lo:hi] {
		s.shipRow(li, w)
	}
}

// shipRow tells every rank that owns a neighbor of local vertex li which
// community li is in now: one (vertex, community) record per rank.
func (s *engine) shipRow(li int, w *wire.Planes) {
	u, cc := uint32(s.part.GlobalID(li)), uint32(s.commOf[li])
	for _, dst := range s.nbrRank[s.nbrOff[li]:s.nbrOff[li+1]] {
		w.To(int(dst)).PutPair(u, cc)
	}
}

// propagateMerge and deltaMerge store received (vertex, community) records,
// for a full and a move-log propagation.
func (s *engine) propagateMerge(t int, r *wire.Reader) error { return s.mergeRecords(t, r, false) }
func (s *engine) deltaMerge(t int, r *wire.Reader) error     { return s.mergeRecords(t, r, true) }

// mergeRecords applies one plane of records. A store is cheaper than the
// decode every merge worker would repeat to find its share, so worker 0
// applies them all and the others return at once; the reference set, the
// sweep marks and the running Σin then have one writer too. With delta set,
// the state the inner loop carries between iterations is kept current: a
// record changes every row its vertex appears in — rev lists them — and the
// edge's weight w moves into or out of Σin when the told vertex enters or
// leaves the row owner's community c0. It lifts no gain over staying in the
// row by more than c·w/m — c = 2 when it leaves c0 (w_c0 falls, w_cc rises),
// 0 when it joins c0, 1 otherwise — so c·w·m/k of the row's horizon is spent
// (skipRoom). A full propagation resets that state wholesale afterwards and
// skips the bookkeeping.
func (s *engine) mergeRecords(t int, r *wire.Reader, delta bool) error {
	if t != 0 {
		return nil
	}
	for r.More() {
		u, cc := r.Pair()
		if r.Err() != nil {
			break
		}
		if int(u) >= s.n || int(cc) >= s.n {
			return fmt.Errorf("core: rank %d received propagation record (vertex %d, community %d) outside its %d ids",
				s.part.Rank, u, cc, s.n)
		}
		lo, hi := s.revOff[u], s.revOff[u+1]
		if lo == hi {
			return fmt.Errorf("core: rank %d was told the community of vertex %d, which no row of its has for a neighbor",
				s.part.Rank, u)
		}
		old := s.ghost[u]
		s.ghost[u] = cc
		s.reference(cc)
		if !delta {
			continue
		}
		w := s.revW[lo:hi]
		for i, li := range s.revRow[lo:hi] {
			c0, spend := uint32(s.commOf[li]), 1.0
			if old == c0 {
				s.intra -= w[i]
				spend = 2
			}
			if cc == c0 {
				s.intra += w[i]
				spend = 0
			}
			s.skipUntil[li] -= spend * w[i] * s.skipRate[li]
		}
	}
	return r.Err()
}

// reference adds community cc to the set whose totals pullTotals fetches.
func (s *engine) reference(cc uint32) {
	if !s.refSeen[cc] {
		s.refSeen[cc] = true
		s.refs = append(s.refs, cc)
	}
}

// pullTotals refreshes totCache and memCache for every referenced
// community: one round of requests (community ids) to the owners, one round
// of replies — (Σtot f64, members u32) per request, in request order, so the
// id is not echoed. A community reported empty leaves the reference set: the
// totals of this iteration's update are already applied and ghost is
// current, so nothing on this rank points at it any more, and it re-enters
// through reference if a later move revives it. The largest |ΔΣtot| the pull
// brings to any referenced community — measured against whatever value was
// cached last, also for a community that re-enters the set — is added to
// drift, the quantity findBest's skip marks are bounded in.
func (s *engine) pullTotals() error {
	req := s.outPlanes()
	for _, cc := range s.refs {
		req.To(s.part.Owner(graph.V(cc))).PutU32(cc)
	}
	reqs, err := s.exchange(req)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(reqs)
	resp := s.outPlanes()
	var r wire.Reader
	for src, plane := range reqs {
		r.Reset(plane)
		b := resp.To(src)
		for r.More() {
			cc := graph.V(r.U32())
			if err := r.Err(); err != nil {
				return err
			}
			if int(cc) >= s.n || !s.part.Owns(cc) {
				return fmt.Errorf("core: rank %d asked for the totals of community %d it does not own", s.part.Rank, cc)
			}
			li := s.part.LocalIndex(cc)
			b.PutF64(s.totOwn[li])
			b.PutU32(uint32(s.memOwn[li]))
		}
	}
	resps, err := s.exchange(resp)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(resps)
	for src, plane := range resps {
		s.replyReaders[src].Reset(plane)
	}
	live := s.refs[:0]
	var shift float64
	for _, cc := range s.refs {
		r := &s.replyReaders[s.part.Owner(graph.V(cc))]
		tot, members := r.F64(), r.U32()
		if d := math.Abs(tot - s.totCache[cc]); d > shift {
			shift = d
		}
		s.totCache[cc], s.memCache[cc] = tot, members
		if members == 0 {
			s.refSeen[cc] = false
		} else {
			live = append(live, cc)
		}
	}
	s.drift += shift
	s.refs = live
	for src := range resps {
		if r := &s.replyReaders[src]; r.Err() != nil || r.More() {
			return fmt.Errorf("core: rank %d got %d bytes of totals from rank %d for the communities it asked about (decode error: %v)",
				s.part.Rank, len(resps[src]), src, r.Err())
		}
	}
	return nil
}
