package core

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/par"
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
	if s.dirty != nil {
		// Every row and every cached total is replaced, so per-vertex
		// staleness tracking loses its baseline.
		s.allDirty = true
	}
	if err := s.scatter(s.nLoc, s.propBuildFn, s.propMergeFn); err != nil {
		return err
	}
	// An owned vertex also reads the totals of the community it is in.
	for li := 0; li < s.nLoc; li++ {
		if s.active[li] {
			s.reference(uint32(s.commOf[li]))
		}
	}
	return s.pullTotals(false)
}

// propagateDelta re-stores only the slots of the in-edges of the vertices
// that changed community in the last update. The totals are re-pulled for
// the whole reference set: they change even for communities whose
// membership this rank did not touch.
func (s *engine) propagateDelta() error {
	if err := s.scatter(len(s.moveLog), s.deltaBuildFn, s.propMergeFn); err != nil {
		return err
	}
	if s.dirty == nil {
		return s.pullTotals(false)
	}
	if err := s.pullTotals(true); err != nil {
		return err
	}
	s.markChangedComms()
	return nil
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

// propagateMerge stores received (slot, community) records. A store is
// cheaper than the decode every merge worker would repeat to find its share,
// so worker 0 applies them all and the others return at once; the reference
// set and the dirty marks then have one writer too.
func (s *engine) propagateMerge(t int, r *wire.Reader) error {
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
		s.outComm[slot] = cc
		s.reference(cc)
		if s.dirty != nil && !s.allDirty {
			// The row changed: its vertex's cached findBest result is stale.
			s.dirty[s.rowOf(slot)] = true
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

// rowOf returns the local vertex whose out row holds slot (the last row
// starting at or before it). Only the pruning path pays for the search.
func (s *engine) rowOf(slot uint32) int {
	lo, hi := 0, s.nLoc
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if s.outOff[mid] <= int64(slot) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// markChangedComms marks every vertex whose findBest inputs include a
// community whose Σtot or member count just changed (collected by the
// pullTotals diff): vertices with a slot holding it, and vertices currently
// assigned to it (their stay baseline and singleton rule read its totals).
func (s *engine) markChangedComms() {
	if len(s.changedList) > 0 {
		par.For(s.nLoc, s.opt.Threads, s.markBody)
	}
}

func (s *engine) markChangedRange(_, lo, hi int) {
	for li := lo; li < hi; li++ {
		if s.dirty[li] {
			continue
		}
		if s.active[li] && s.changed[s.commOf[li]] {
			s.dirty[li] = true
			continue
		}
		for _, cc := range s.outComm[s.outOff[li]:s.outOff[li+1]] {
			if s.changed[cc] {
				s.dirty[li] = true
				break
			}
		}
	}
}

// pullTotals refreshes totCache and memCache for every referenced
// community: one round of requests (community ids) to the owners, one round
// of replies — (Σtot f64, members u32) per request, in request order, so the
// id is not echoed. A community reported empty leaves the reference set: the
// totals of this iteration's update are already applied and every slot is
// current, so nothing on this rank points at it any more, and it re-enters
// through reference if a later move revives it. With diff set (pruning), the
// communities whose totals moved since the last pull are collected for
// markChangedComms.
func (s *engine) pullTotals(diff bool) error {
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
	if diff {
		for _, cc := range s.changedList {
			s.changed[cc] = false
		}
		s.changedList = s.changedList[:0]
	}
	live := s.refs[:0]
	for _, cc := range s.refs {
		r := &s.replyReaders[s.part.Owner(graph.V(cc))]
		tot, members := r.F64(), r.U32()
		if diff && (s.totCache[cc] != tot || s.memCache[cc] != members) {
			s.changed[cc] = true
			s.changedList = append(s.changedList, cc)
		}
		s.totCache[cc], s.memCache[cc] = tot, members
		if members == 0 {
			s.refSeen[cc] = false
		} else {
			live = append(live, cc)
		}
	}
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
