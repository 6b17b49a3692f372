package core

import (
	"fmt"
	"sync/atomic"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// Graph construction: loading the rank's input edges, deriving per-level
// vertex state from the In_Table, collapsing communities into the next
// level's supergraph (Algorithm 5), and gathering the level's assignment
// vector for result reporting.

// loadLocal fills the In_Table from this rank's input edges. Self-loop
// weights are doubled on insertion so that the degree of a vertex is simply
// the sum of its in-entries (DESIGN.md §5); the doubling is consistent
// across levels because graph reconstruction regenerates (c,c) entries
// already doubled.
func (s *engine) loadLocal(local graph.EdgeList) error {
	// Shards hold about an equal share of the entries; sizing them once
	// spares the eight-odd doublings (and re-insertions) a cold table needs.
	for _, tab := range s.in {
		tab.Reserve(len(local) / s.opt.Threads)
	}
	for _, e := range local {
		if !s.part.Owns(e.V) {
			return fmt.Errorf("core: rank %d given edge with dst %d owned by rank %d", s.part.Rank, e.V, s.part.Owner(e.V))
		}
		if err := e.Check(s.n); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		w := e.W
		if e.U == e.V {
			w *= 2
		}
		li := s.part.LocalIndex(e.V)
		s.in[s.shardOf(li)].AddPair(e.U, e.V, w)
	}
	return nil
}

// levelInit derives per-vertex state from the current In_Table and returns
// the global number of active vertices. It is called at the start of every
// level (the In_Table is the level's graph).
//
// It also refuses a graph that is not symmetric, which the out rows rest on
// (outrows.go): the entries (u→v) held across the group must be matched one
// for one by their mirrors (v→u). Each entry adds a 64-bit mix of its
// unordered pair to a wrapping sum when u < v and takes it off when u > v, so
// the group's total — which rides the active-count reduction, no round of its
// own — is zero for a symmetric graph and, for any other, zero with
// probability 2⁻⁶⁴; every rank reads the same total and returns together.
// Weights are not compared here; invariant 8 does that under -check.
func (s *engine) levelInit() (uint64, error) {
	for i := 0; i < s.nLoc; i++ {
		s.active[i] = false
		s.k[i] = 0
		s.self2[i] = 0
		s.totOwn[i] = 0
		s.commOf[i] = s.part.GlobalID(i)
	}
	s.adjOff = resize(s.adjOff, s.nLoc+1)
	clear(s.adjOff)
	var mirror atomic.Uint64
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		var sum uint64
		s.in[t].Range(func(key uint64, w float64) bool {
			src, dst := hashfn.Unpack32(key)
			li := s.part.LocalIndex(dst)
			s.active[li] = true
			s.k[li] += w
			s.adjOff[li+1]++
			switch {
			case src < dst:
				sum += hashfn.Mix(hashfn.Bitwise, key)
			case src > dst:
				sum -= hashfn.Mix(hashfn.Bitwise, hashfn.Pack32(dst, src))
			default:
				s.self2[li] = w
			}
			return true
		})
		mirror.Add(sum)
	})
	var localK float64
	var localActive uint64
	for i := 0; i < s.nLoc; i++ {
		s.memOwn[i] = 0
		if s.active[i] {
			localK += s.k[i]
			s.totOwn[i] = s.k[i]
			s.memOwn[i] = 1
			localActive++
		}
	}
	// Build the in-edge CSR (second pass over the In_Table).
	for i := 0; i < s.nLoc; i++ {
		s.adjOff[i+1] += s.adjOff[i]
	}
	total := int(s.adjOff[s.nLoc])
	s.adjSrc = resize(s.adjSrc, total)
	s.adjW = resize(s.adjW, total)
	s.cursor = resize(s.cursor, s.nLoc)
	copy(s.cursor, s.adjOff)
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		s.in[t].Range(func(key uint64, w float64) bool {
			src, dst := hashfn.Unpack32(key)
			li := s.part.LocalIndex(dst)
			p := s.cursor[li]
			s.adjSrc[p] = src
			s.adjW[p] = w
			s.cursor[li]++
			return true
		})
	})
	s.buildNeighborIndex()
	twoM, err := s.c.AllReduceFloat64(localK, comm.OpSum)
	if err != nil {
		return 0, err
	}
	s.m = twoM / 2
	sums := [2]uint64{localActive, mirror.Load()}
	if err := s.c.AllReduceUint64Slice(sums[:]); err != nil {
		return 0, err
	}
	if sums[1] != 0 {
		return 0, fmt.Errorf("core: rank %d: the input is not symmetric: some edge (u→v) is held by owner(v) without its mirror (v→u) at owner(u); "+
			"every undirected edge must be given once per orientation, as graph.SplitEdges produces", s.part.Rank)
	}
	return sums[0], nil
}

// reconstruct is Algorithm 5: every owned vertex u's out row, summed per
// neighbor community c, becomes the supergraph in-edges ((comm[u], c),
// w_{u→c}) at owner(c), rebuilding the In_Table for the next level.
func (s *engine) reconstruct() error {
	// The In_Table is reset before the scatter so merge workers can rebuild
	// it while the row scan is still producing records; build reads the rows,
	// merge writes the In_Table, so the two overlap safely.
	for t := 0; t < s.opt.Threads; t++ {
		s.in[t].Reset()
	}
	if err := s.scatter(s.nLoc, s.reconBuildFn, s.reconMergeFn); err != nil {
		return err
	}
	if debugBreakReconstruct && s.part.Rank == 0 {
		// Negative-test hook: smuggle phantom edge weight into the rebuilt
		// In_Table so the next level's total weight drifts — the invariant
		// checker must catch this as a reconstruction violation.
		s.in[s.shardOf(0)].AddPair(0, 0, 1)
	}
	return nil
}

// reconstructBuild collapses the out rows of a contiguous range of owned
// vertices, emitting each (vertex, neighbor community) sum as a supergraph
// in-edge for the owner of its destination supervertex.
func (s *engine) reconstructBuild(t, lo, hi int, cw *wire.ChunkWriter) {
	sc := s.scan[t]
	for li := lo; li < hi; li++ {
		if !s.active[li] {
			continue
		}
		// src supervertex = comm[u]; dst supervertex cc is owned by the
		// destination rank.
		from := uint32(s.commOf[li])
		for _, cc := range s.gatherRow(sc, li) {
			dst := s.part.Owner(cc)
			cw.To(dst).PutTriple(wire.Triple{A: from, B: uint32(cc), W: sc.w2c[cc]})
			cw.Commit(dst)
			sc.w2c[cc] = 0 // listed twice, a community still ships its sum once
		}
	}
}

// reconstructMerge inserts received supergraph edges into this worker's
// In_Table shard.
func (s *engine) reconstructMerge(t int, r *wire.Reader) error {
	for r.More() {
		tr := r.Triple()
		if r.Err() != nil {
			break
		}
		li := s.part.LocalIndex(tr.B)
		if li%s.opt.Threads != t {
			continue
		}
		s.in[t].AddPair(tr.A, tr.B, tr.W)
	}
	return r.Err()
}

// gatherAssignments returns the full community vector of the current level
// (every id in [0,n), inactive ids mapping to themselves).
func (s *engine) gatherAssignments() ([]graph.V, error) {
	mine := make([]uint32, s.nLoc)
	for li := 0; li < s.nLoc; li++ {
		mine[li] = uint32(s.commOf[li])
	}
	all, err := s.c.AllGatherUint32(mine)
	if err != nil {
		return nil, err
	}
	full := make([]graph.V, s.n)
	for r, xs := range all {
		for li, v := range xs {
			gid := li*s.c.Size() + r
			if gid < s.n {
				full[gid] = graph.V(v)
			}
		}
	}
	return full, nil
}
