package core

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// State propagation (Algorithm 3): the phase that tells every rank which
// community each neighbor of its owned vertices is in, as 8-byte
// (vertex, community) records into ghost (outrows.go), and keeps the Σtot and
// member counts Equation 4 needs current. It comes in two builds over one
// record shape and one merge: propagate tells of every owned vertex (level
// start, warm start, rollback) and then pulls the totals of every community
// the rank references, registering it with their owners; propagateDelta
// tells only of the vertices the last update moved (every inner iteration),
// carrying their Σtot deltas to the owners in the same round, after which
// pushTotals has every owner send the totals that changed to the ranks
// registered for them.

// propagate tells every rank that owns a neighbor of an owned vertex u which
// community u is in, rebuilds the set of communities this rank references
// from what arrives, and pulls their Σtot and member counts from their
// owners. It returns the group's modularity, whose shares ride the pull's
// replies.
func (s *engine) propagate() (float64, error) {
	for _, cc := range s.refs {
		s.refSeen[cc] = false
	}
	s.refs = s.refs[:0]
	if err := s.scatter(s.nLoc, s.propBuildFn, s.propMergeFn); err != nil {
		return 0, err
	}
	// An owned vertex also reads the totals of the community it is in.
	for li := 0; li < s.nLoc; li++ {
		if s.active[li] {
			s.reference(uint32(s.commOf[li]))
		}
	}
	// Every row and every cached total is replaced, so what the inner loop
	// carries from iteration to iteration starts over: the next sweep scores
	// every vertex, and Σin is re-scanned (which also sheds the rounding a
	// running sum of fractional weights picks up) — before the pull, whose
	// replies carry the modularity shares it enters.
	s.intra = s.intraWeight()
	q, err := s.pullTotals()
	if err != nil {
		return 0, err
	}
	clear(s.skipUntil)
	s.drift = 0
	return q, nil
}

// propagateDelta tells only of the vertices that changed community in the
// last update, and ships the Σtot deltas of those moves in the same round: a
// plane from a rank that moved vertices opens with a uvarint count of delta
// records for its destination's communities (putMoveDeltas), and its records
// follow. The owners apply the deltas and the told ranks the records, both in
// source-rank order (deltaMerge); pushTotals then brings the totals that
// changed to the ranks that reference them.
func (s *engine) propagateDelta() error {
	s.chunked.Reset()
	if len(s.moveLog) > 0 {
		s.putMoveDeltas(s.chunked.Writer(0))
	}
	return s.scatterArmed(len(s.moveLog), s.deltaBuildFn, s.deltaMergeFn)
}

// putMoveDeltas writes the head of every plane of a move-log round: a count,
// then the (community, ±k) records of the logged moves whose community the
// destination owns, in move-log order — (left, −k) and then (new, +k) per
// move, the order the owner's float sums have always been taken in. A record
// that adds k also names the ranks the move's (vertex, community) record goes
// to — a uvarint count and the ranks — which the owner registers for the new
// community's totals on their behalf: each of them references it once the
// record is merged.
func (s *engine) putMoveDeltas(w *wire.Planes) {
	clear(s.headCount)
	for _, li := range s.moveLog {
		s.headCount[s.part.Owner(s.left[li])]++
		s.headCount[s.part.Owner(s.commOf[li])]++
	}
	for dst, n := range s.headCount {
		w.To(dst).PutUvarint(n)
	}
	for _, li := range s.moveLog {
		oldC, newC := s.left[li], s.commOf[li]
		bo := w.To(s.part.Owner(oldC))
		bo.PutU32(uint32(oldC))
		bo.PutF64(-s.k[li])
		bn := w.To(s.part.Owner(newC))
		bn.PutU32(uint32(newC))
		bn.PutF64(s.k[li])
		ranks := s.nbrRank[s.nbrOff[li]:s.nbrOff[li+1]]
		bn.PutUvarint(uint64(len(ranks)))
		for _, r := range ranks {
			bn.PutUvarint(uint64(r))
		}
	}
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

// propagateMerge stores received (vertex, community) records of a full
// propagation.
func (s *engine) propagateMerge(t int, r *wire.Reader) error { return s.mergeRecords(t, r, false) }

// deltaMerge applies one plane of a move-log round: its head of Σtot deltas,
// then its records. Worker 0 does both, as mergeRecords explains.
func (s *engine) deltaMerge(t int, r *wire.Reader) error {
	if t != 0 {
		return nil
	}
	if r.More() {
		if err := s.applyMoveDeltas(r); err != nil {
			return err
		}
	}
	return s.mergeRecords(t, r, true)
}

// applyMoveDeltas decodes a plane head putMoveDeltas wrote: it adds each
// delta to its owned community's Σtot and member count, registers the ranks
// a joining record names, and lists the community for pushTotals. A record
// leaves its community when its k carries the sign bit — −k does, for every
// k ≥ 0 — and joins otherwise.
func (s *engine) applyMoveDeltas(r *wire.Reader) error {
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		cc, d := r.U32(), r.F64()
		if int(cc) >= s.n || !s.part.Owns(graph.V(cc)) {
			return fmt.Errorf("core: rank %d received a Σtot delta for community %d, which it does not own", s.part.Rank, cc)
		}
		li := s.part.LocalIndex(graph.V(cc))
		if math.Signbit(d) {
			s.memOwn[li]--
		} else {
			s.memOwn[li]++
			for j, nr := uint64(0), r.Uvarint(); j < nr && r.Err() == nil; j++ {
				rk := r.Uvarint()
				if rk >= uint64(s.c.Size()) {
					return fmt.Errorf("core: rank %d was asked to register rank %d of a %d-rank group", s.part.Rank, rk, s.c.Size())
				}
				s.subs[li*s.subWords+int(rk/64)] |= 1 << (rk % 64)
			}
		}
		s.totOwn[li] += d
		if !s.changed[li] {
			s.changed[li] = true
			s.changedList = append(s.changedList, int32(li))
		}
	}
	return r.Err()
}

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
		w, in := s.revW[lo:hi], s.intra
		for i, li := range s.revRow[lo:hi] {
			c0 := uint32(s.commOf[li])
			leaves, joins := old == c0, cc == c0
			in = in - keepIf(w[i], leaves) + keepIf(w[i], joins)
			spend := keepIf(1+keepIf(1, leaves), !joins) // c: 2 leaving, 0 joining, else 1
			s.skipUntil[li] -= spend * w[i] * s.skipRate[li]
		}
		s.intra = in
	}
	return r.Err()
}

// reference adds community cc to the set whose totals this rank caches.
func (s *engine) reference(cc uint32) {
	if !s.refSeen[cc] {
		s.refSeen[cc] = true
		s.refs = append(s.refs, cc)
	}
}

// pullTotals refreshes totCache and memCache for every referenced
// community: one round of requests (community ids) to the owners, one round
// of replies — (Σtot f64, members u32) per request, in request order, so the
// id is not echoed. Every reply plane opens with the sender's modularity share
// (localQ), folded in rank order as in pushTotals; pullTotals returns the
// group's modularity. The owners start their subscriber lists over from the
// requests: each requester of a community that is not empty is registered
// for the totals pushTotals sends when it changes. A community reported empty
// leaves the reference set: the totals are current and ghost is too, so
// nothing on this rank points at it any more, and it re-enters through
// reference if a later move revives it. The largest |ΔΣtot| the pull brings
// to any referenced community — measured against whatever value was cached
// last, also for a community that re-enters the set — is added to drift, the
// quantity findBest's skip marks are bounded in.
func (s *engine) pullTotals() (float64, error) {
	q, err := s.localQ()
	if err != nil {
		return 0, err
	}
	req := s.outPlanes()
	for _, cc := range s.refs {
		req.To(s.part.Owner(graph.V(cc))).PutU32(cc)
	}
	reqs, err := s.exchange(req)
	if err != nil {
		return 0, err
	}
	defer wire.ReleasePlanes(reqs)
	clear(s.subs)
	resp := s.outPlanes()
	var r wire.Reader
	for src, plane := range reqs {
		r.Reset(plane)
		b := resp.To(src)
		b.PutF64(q)
		for r.More() {
			cc := graph.V(r.U32())
			if err := r.Err(); err != nil {
				return 0, err
			}
			if int(cc) >= s.n || !s.part.Owns(cc) {
				return 0, fmt.Errorf("core: rank %d asked for the totals of community %d it does not own", s.part.Rank, cc)
			}
			li := s.part.LocalIndex(cc)
			b.PutF64(s.totOwn[li])
			b.PutU32(uint32(s.memOwn[li]))
			if s.memOwn[li] != 0 {
				s.subs[li*s.subWords+src/64] |= 1 << (src % 64)
			}
		}
	}
	resps, err := s.exchange(resp)
	if err != nil {
		return 0, err
	}
	defer wire.ReleasePlanes(resps)
	for src, plane := range resps {
		r := &s.replyReaders[src]
		r.Reset(plane)
		q = addShare(q, r.F64(), src)
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
			return 0, fmt.Errorf("core: rank %d got %d bytes of totals from rank %d for the communities it asked about (decode error: %v)",
				s.part.Rank, len(resps[src]), src, r.Err())
		}
	}
	return q, nil
}

// addShare folds rank src's share into the sum q of the shares of the ranks
// before it, as comm.AllReduceFloat64 folds: the first share is taken as it
// is, so a sum has the same bits on every rank.
func addShare(q, share float64, src int) float64 {
	if src == 0 {
		return share
	}
	return q + share
}

// pushTotals is the round that ends an inner iteration, and returns the
// group's modularity. Every plane opens with the sender's share of it
// (localQ), folded in rank order as comm.AllReduceFloat64 folds; then each
// owner sends (community u32, Σtot f64, members u32) for every community
// propagateDelta's deltas touched to every rank registered for it — the ranks
// whose reference set holds it, since pullTotals registered the set and a
// move registers, on their behalf, the ranks its record reaches. So every rank
// caches what the pull would have fetched, for the same set: a community
// that got no delta has the total cached already. An owner forgets the
// subscribers of a community that empties, as they drop it on receipt. The
// largest |ΔΣtot| pushed to a rank is added to its drift, as in pullTotals.
func (s *engine) pushTotals() (float64, error) {
	q, err := s.localQ()
	if err != nil {
		return 0, err
	}
	p := s.outPlanes()
	for dst := 0; dst < s.c.Size(); dst++ {
		p.To(dst).PutF64(q)
	}
	for _, li := range s.changedList {
		s.changed[li] = false
		cc, tot, members := uint32(s.part.GlobalID(int(li))), s.totOwn[li], uint32(s.memOwn[li])
		subs := s.subs[int(li)*s.subWords : int(li+1)*s.subWords]
		for w, bits := range subs {
			for ; bits != 0; bits &= bits - 1 {
				b := p.To(w*64 + mathbits.TrailingZeros64(bits))
				b.PutU32(cc)
				b.PutF64(tot)
				b.PutU32(members)
			}
		}
		if members == 0 {
			clear(subs)
		}
	}
	s.changedList = s.changedList[:0]
	in, err := s.exchange(p)
	if err != nil {
		return 0, err
	}
	defer wire.ReleasePlanes(in)
	var r wire.Reader
	var shift float64
	for src, plane := range in {
		r.Reset(plane)
		q = addShare(q, r.F64(), src)
		for r.More() {
			cc, tot, members := r.U32(), r.F64(), r.U32()
			if r.Err() != nil {
				break
			}
			if int(cc) >= s.n || s.part.Owner(graph.V(cc)) != src {
				return 0, fmt.Errorf("core: rank %d was sent the totals of community %d by rank %d, which does not own it", s.part.Rank, cc, src)
			}
			if d := math.Abs(tot - s.totCache[cc]); d > shift {
				shift = d
			}
			s.totCache[cc], s.memCache[cc] = tot, members
			if members == 0 {
				s.refSeen[cc] = false
			}
		}
		if err := r.Err(); err != nil {
			return 0, fmt.Errorf("core: rank %d got %d bytes of totals from rank %d: %w", s.part.Rank, len(plane), src, err)
		}
	}
	s.drift += shift
	return q, nil
}
