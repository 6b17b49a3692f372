package core

import (
	"fmt"
	"math"

	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// The out-row arena: Algorithm 3's Out_Table — w_{u→c} for every owned u and
// neighbor community c — held as flat per-edge rows instead of a hash keyed
// by (u, c) that is rebuilt every iteration. The level's graph is fixed, so
// each in-edge (v→u) stored at owner(u) is given, once per level, a slot in
// v's row at owner(v): the slot keeps the edge weight, state propagation
// stores comm[u] into it, and w_{u→c} is the sum of the row's weights whose
// slot holds c. Every slot has exactly one writer — the in-edge it was
// assigned to — so a propagation record is (slot, community) and applying it
// is one store: no lookup, no insertion, nothing to delete when u leaves c.

// buildOutRows is the level's slot handshake, two exchange rounds over the
// in-edge CSR levelInit just built. Round one announces every in-edge
// (v→u, w) to owner(v) as (v, w); owner(v) lays the announcements out as v's
// row — in arrival order: source rank, then the sender's CSR order, which is
// the same for any thread count or exchange mode — and round two returns the
// slot of each announcement, in the order received, which the sender keeps
// as peerSlot.
func (s *engine) buildOutRows() error {
	p := s.outPlanes()
	for e, src := range s.adjSrc {
		b := p.To(s.part.Owner(src))
		b.PutU32(uint32(src))
		b.PutF64(s.adjW[e])
	}
	in, err := s.exchange(p)
	if err != nil {
		return err
	}

	s.outOff = resize(s.outOff, s.nLoc+1)
	clear(s.outOff)
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			v := graph.V(r.U32())
			r.F64()
			if err := r.Err(); err != nil {
				return err
			}
			if int(v) >= s.n || !s.part.Owns(v) {
				return fmt.Errorf("core: rank %d handed an out-edge of vertex %d it does not own", s.part.Rank, v)
			}
			s.outOff[s.part.LocalIndex(v)+1]++
		}
	}
	for li := 0; li < s.nLoc; li++ {
		s.outOff[li+1] += s.outOff[li]
	}
	slots := s.outOff[s.nLoc]
	if slots > math.MaxUint32 {
		return fmt.Errorf("core: rank %d holds %d out-edges, more than a 32-bit slot can address", s.part.Rank, slots)
	}
	s.outW = resize(s.outW, int(slots))
	s.outComm = resize(s.outComm, int(slots))
	s.slotRow = resize(s.slotRow, int(slots))
	for li := 0; li < s.nLoc; li++ {
		row := s.slotRow[s.outOff[li]:s.outOff[li+1]]
		for i := range row {
			row[i] = uint32(li)
		}
	}
	s.cursor = resize(s.cursor, s.nLoc)
	copy(s.cursor, s.outOff)

	resp := s.outPlanes()
	for src, plane := range in {
		r.Reset(plane)
		b := resp.To(src)
		for r.More() {
			li := s.part.LocalIndex(graph.V(r.U32()))
			slot := s.cursor[li]
			s.cursor[li]++
			s.outW[slot] = r.F64()
			b.PutU32(uint32(slot))
		}
	}
	wire.ReleasePlanes(in)
	back, err := s.exchange(resp)
	if err != nil {
		return err
	}

	s.peerSlot = resize(s.peerSlot, len(s.adjSrc))
	for dst, plane := range back {
		s.replyReaders[dst].Reset(plane)
	}
	for e, src := range s.adjSrc {
		s.peerSlot[e] = s.replyReaders[s.part.Owner(src)].U32()
	}
	for dst := range back {
		if r := &s.replyReaders[dst]; r.Err() != nil || r.More() {
			return fmt.Errorf("core: rank %d got %d slot bytes from rank %d for the in-edges it announced (decode error: %v)",
				s.part.Rank, len(back[dst]), dst, r.Err())
		}
	}
	wire.ReleasePlanes(back)
	return nil
}

// resize returns xs with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return make([]T, n)
}

// gatherRow sums the out row of local vertex li per neighbor community into
// sc.w2c and returns the communities it touched — gainScan's list, which may
// name a community twice.
func (s *engine) gatherRow(sc *gainScan, li int) []graph.V {
	lo, hi := s.outOff[li], s.outOff[li+1]
	comm, w := s.outComm[lo:hi], s.outW[lo:hi]
	touched := resize(sc.touched, len(comm))
	w2c, n := sc.w2c, 0
	for i, c := range comm {
		n = listAdd(w2c, touched, n, c, w[i])
	}
	sc.touched = touched[:n]
	return sc.touched
}
