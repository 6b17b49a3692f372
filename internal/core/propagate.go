package core

import (
	"fmt"
	"math"

	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// State propagation (Algorithm 3): the phase that tells every rank which
// community each out-neighbor of its owned vertices is in, as 8-byte
// (slot, community) records into the level's out rows (outrows.go), followed
// by the Σtot/member pull Equation 4 needs. It comes in two builds over one
// record shape and one merge: propagate ships every in-edge (level start,
// warm start, rollback), propagateDelta only the in-edges of the vertices
// the last update moved (every inner iteration).

// propagate stores comm[u] into the slot of every in-edge (v→u), rebuilds
// the set of communities this rank references from what arrives, and pulls
// their Σtot and member counts from their owners.
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

// propagateDelta re-stores only the slots of the in-edges of the vertices
// that changed community in the last update. The totals are re-pulled for
// the whole reference set: they change even for communities whose
// membership this rank did not touch.
func (s *engine) propagateDelta() error {
	if err := s.scatter(len(s.moveLog), s.deltaBuildFn, s.deltaMergeFn); err != nil {
		return err
	}
	return s.pullTotals()
}

// propagateBuild encodes the in-edges of a contiguous range of owned
// vertices.
func (s *engine) propagateBuild(_, lo, hi int, w *wire.ChunkWriter) {
	for li := lo; li < hi; li++ {
		if s.active[li] {
			s.shipRow(li, w)
		}
	}
}

// deltaBuild encodes the in-edges of a contiguous range of the move log.
func (s *engine) deltaBuild(_, lo, hi int, w *wire.ChunkWriter) {
	for _, li := range s.moveLog[lo:hi] {
		s.shipRow(li, w)
	}
}

// shipRow tells the owner of every in-neighbor of local vertex li which
// community li is in now: one (slot, community) record per in-edge.
func (s *engine) shipRow(li int, w *wire.ChunkWriter) {
	cc := uint32(s.commOf[li])
	for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
		dst := s.part.Owner(s.adjSrc[e])
		w.To(dst).PutPair(s.peerSlot[e], cc)
		w.Commit(dst)
	}
}

// propagateMerge and deltaMerge store received (slot, community) records,
// for a full and a move-log propagation.
func (s *engine) propagateMerge(t int, r *wire.Reader) error { return s.mergeRecords(t, r, false) }
func (s *engine) deltaMerge(t int, r *wire.Reader) error     { return s.mergeRecords(t, r, true) }

// mergeRecords applies one plane of records. A store is cheaper than the
// decode every merge worker would repeat to find its share, so worker 0
// applies them all and the others return at once; the reference set, the
// sweep marks and the running Σin then have one writer too. With delta set,
// the state the inner loop carries between iterations is kept current: a
// record changes its row, so the row's vertex is scored by the next sweep,
// and it moves the slot's weight into or out of Σin when the slot enters or
// leaves its row owner's community. A full propagation resets that state
// wholesale afterwards and skips the bookkeeping.
func (s *engine) mergeRecords(t int, r *wire.Reader, delta bool) error {
	if t != 0 {
		return nil
	}
	for r.More() {
		slot, cc := r.Pair()
		if r.Err() != nil {
			break
		}
		if int(slot) >= len(s.outComm) || int(cc) >= s.n {
			return fmt.Errorf("core: rank %d received propagation record (slot %d, community %d) outside its %d slots / %d ids",
				s.part.Rank, slot, cc, len(s.outComm), s.n)
		}
		old := s.outComm[slot]
		s.outComm[slot] = cc
		s.reference(cc)
		if !delta {
			continue
		}
		li := s.slotRow[slot]
		s.skipUntil[li] = 0
		c0 := uint32(s.commOf[li])
		if old == c0 {
			s.intra -= s.outW[slot]
		}
		if cc == c0 {
			s.intra += s.outW[slot]
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
// totals of this iteration's update are already applied and every slot is
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
	wire.ReleasePlanes(reqs)
	resps, err := s.exchange(resp)
	if err != nil {
		return err
	}
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
	wire.ReleasePlanes(resps)
	return nil
}
