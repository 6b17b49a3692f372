package core

import (
	"fmt"
	"slices"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// Graph construction: taking the rank's input edges, sorting a level's edge
// records into its rows and deriving per-vertex state from them, collapsing
// communities into the next level's supergraph (Algorithm 5), and gathering
// the level's assignment vector for result reporting.

// loadLocal checks this rank's input edges and makes them level 0's records:
// at one thread the caller's list itself, otherwise a copy dealt out to the
// workers that own the rows. The records are raw — buildRows doubles each
// self-loop weight as it sorts, so that the degree of a vertex is simply the
// sum of its row (DESIGN.md §5); graph reconstruction regenerates (c,c)
// records already doubled.
func (s *engine) loadLocal(local graph.EdgeList) error {
	T := s.opt.Threads
	if T == 1 {
		s.pend[0] = local
	} else {
		for t := range s.pend {
			s.pend[t] = make(graph.EdgeList, 0, len(local)/T)
		}
	}
	for _, e := range local {
		if !s.part.Owns(e.V) {
			return fmt.Errorf("core: rank %d given edge with dst %d owned by rank %d", s.part.Rank, e.V, s.part.Owner(e.V))
		}
		if err := checkEdge(e, s.n); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if T > 1 {
			t := s.shardOf(s.part.LocalIndex(e.V))
			s.pend[t] = append(s.pend[t], e)
		}
	}
	s.raw = true
	return nil
}

// checkEdge is graph.Edge.Check plus the engine's own precondition, no weight
// below zero: findBest's skip bound needs every Σtot ≥ 0 (DESIGN.md §5).
func checkEdge(e graph.Edge, n int) error {
	if err := e.Check(n); err != nil || e.W >= 0 {
		return err
	}
	return fmt.Errorf("edge (%d,%d) has negative weight %v", e.U, e.V, e.W)
}

const refusedInput = 1 << 48

// refuseInput returns err after joining level 0's two reductions (levelInit)
// with no graph and an active count of refusedInput — above any count of ids
// below 2³² — so that the ranks whose input was fine fail too, not wait.
func (s *engine) refuseInput(err error) error {
	if _, e := s.c.AllReduceFloat64(0, comm.OpSum); e == nil {
		_ = s.c.AllReduceUint64Slice([]uint64{refusedInput, 0}) // err is this rank's answer either way
	}
	return err
}

// buildRows sorts the level's records into the in-edge CSR — the level's
// graph — and derives the per-vertex state and the two propagation indexes
// from it. The sort is two stable counting passes, by source and then by row,
// each worker over the records of the rows it owns; the second merges the
// records of one (src, dst) pair as they land next to each other, summing
// their weights in arrival order. So a row is ascending by source and holds a
// pair once, and neither its order nor a bit of its weights depends on the
// thread count. Linear in records + ids, no allocation
// once the arrays have reached level 0's size. It returns this rank's Σk,
// active count and mirror sum (levelInit).
func (s *engine) buildRows() (localK float64, localActive, mirror uint64) {
	T := s.opt.Threads
	s.adjOff = resize(s.adjOff, s.nLoc+1)
	clear(s.adjOff)
	par.For(T, T, s.bySrcBody)
	for i := 0; i < s.nLoc; i++ {
		s.adjOff[i+1] += s.adjOff[i]
	}
	s.adjSrc = resize(s.adjSrc, int(s.adjOff[s.nLoc]))
	s.adjW = resize(s.adjW, len(s.adjSrc))
	s.cursor = resize(s.cursor, s.nLoc)
	copy(s.cursor, s.adjOff)
	par.For(T, T, s.byRowBody)
	if s.raw && T == 1 {
		s.pend[0] = nil // the caller's list: the next level's records start afresh
	}
	s.raw = false

	// One pass over the rows closes the gaps the merged records left and
	// derives the vertex state from the entries that remain.
	var p int64
	for li := 0; li < s.nLoc; li++ {
		dst := s.part.GlobalID(li)
		lo, hi := s.adjOff[li], s.cursor[li]
		s.adjOff[li] = p
		var k, self2 float64
		for e := lo; e < hi; e++ {
			src, w := s.adjSrc[e], s.adjW[e]
			s.adjSrc[p], s.adjW[p] = src, w
			p++
			k += w
			switch {
			case src < dst:
				mirror += hashfn.Mix(hashfn.Bitwise, hashfn.Pack32(src, dst))
			case src > dst:
				mirror -= hashfn.Mix(hashfn.Bitwise, hashfn.Pack32(dst, src))
			default:
				self2 = w
			}
		}
		s.k[li], s.self2[li], s.totOwn[li] = k, self2, k
		s.commOf[li] = dst
		s.active[li], s.memOwn[li] = hi > lo, 0
		if s.active[li] {
			s.memOwn[li] = 1
			localK += k
			localActive++
		}
	}
	s.adjOff[s.nLoc] = p
	s.adjSrc, s.adjW = s.adjSrc[:p], s.adjW[:p]
	s.buildNeighborIndex()
	return localK, localActive, mirror
}

// sortBySource is buildRows' first pass for worker t: its records, stably
// sorted by source into bySrc[t] with the row in place of the destination and
// a raw self-loop doubled, and the record count of each of its rows added
// into adjOff.
func (s *engine) sortBySource(t int) {
	recs, pos := s.pend[t], s.srcPos[t]
	clear(pos)
	for _, e := range recs {
		pos[e.U+1]++
		s.adjOff[s.part.LocalIndex(e.V)+1]++
	}
	for v := 0; v < s.n; v++ {
		pos[v+1] += pos[v]
	}
	out := resize(s.bySrc[t], len(recs))
	for _, e := range recs {
		if s.raw && e.U == e.V {
			e.W *= 2
		}
		e.V = graph.V(s.part.LocalIndex(e.V))
		out[pos[e.U]] = e
		pos[e.U]++
	}
	s.bySrc[t] = out
}

// fillRows is the second pass: worker t's records, in source order, go to the
// fill position of their row, or onto the entry before it when that is the
// same pair.
func (s *engine) fillRows(t int) {
	for _, e := range s.bySrc[t] {
		p := s.cursor[e.V]
		if p > s.adjOff[e.V] && s.adjSrc[p-1] == e.U {
			s.adjW[p-1] += e.W
			continue
		}
		s.adjSrc[p], s.adjW[p] = e.U, e.W
		s.cursor[e.V] = p + 1
	}
}

// levelInit builds the level's graph from the records gathered for it and
// returns the global number of active vertices. It is called at the start of
// every level.
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
	localK, localActive, mirror := s.buildRows()
	twoM, err := s.c.AllReduceFloat64(localK, comm.OpSum)
	if err != nil {
		return 0, err
	}
	s.m = twoM / 2
	for li, k := range s.k[:s.nLoc] {
		s.skipRate[li] = s.m / (k * skipSafety)
	}
	sums := [2]uint64{localActive, mirror}
	if err := s.c.AllReduceUint64Slice(sums[:]); err != nil {
		return 0, err
	}
	if sums[0] >= refusedInput {
		return 0, fmt.Errorf("core: rank %d: another rank of the group refused an edge of its input", s.part.Rank)
	}
	if sums[1] != 0 {
		return 0, fmt.Errorf("core: rank %d: the input is not symmetric: some edge (u→v) is held by owner(v) without its mirror (v→u) at owner(u); "+
			"every undirected edge must be given once per orientation, as graph.SplitEdges produces", s.part.Rank)
	}
	return sums[0], nil
}

// reconstruct is Algorithm 5: every owned vertex u's out row, summed per
// neighbor community c, becomes the supergraph in-edges ((comm[u], c),
// w_{u→c}) at owner(c) — the next level's records.
func (s *engine) reconstruct() error {
	// The record lists are emptied before the scatter, whose merge workers
	// append the received records to them.
	for t := range s.pend {
		s.pend[t] = s.pend[t][:0]
	}
	if err := s.scatter(s.nLoc, s.reconBuildFn, s.reconMergeFn); err != nil {
		return err
	}
	if debugBreakReconstruct && s.part.Rank == 0 {
		// Negative-test hook: smuggle phantom edge weight into the next
		// level's records so its total weight drifts — the invariant checker
		// must catch this as a reconstruction violation.
		s.pend[0] = append(s.pend[0], graph.Edge{U: 0, V: 0, W: 1})
	}
	return nil
}

// reconstructBuild collapses the out rows of a contiguous range of owned
// vertices, emitting each (vertex, neighbor community) sum as a supergraph
// in-edge for the owner of its destination supervertex.
func (s *engine) reconstructBuild(t, lo, hi int, cw *wire.Planes) {
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
			sc.w2c[cc] = 0 // listed twice, a community still ships its sum once
		}
	}
}

// reconstructMerge keeps the received supergraph edges whose row is worker
// t's, refusing one this rank cannot hold. The list grows once per plane.
func (s *engine) reconstructMerge(t int, r *wire.Reader) error {
	s.pend[t] = slices.Grow(s.pend[t], r.Remaining()/wire.TripleSize/s.opt.Threads)
	for r.More() {
		tr := r.Triple()
		if r.Err() != nil {
			break
		}
		if s.shardOf(s.part.LocalIndex(tr.B)) != t {
			continue
		}
		e := graph.Edge{U: tr.A, V: tr.B, W: tr.W}
		if err := checkEdge(e, s.n); err != nil {
			return fmt.Errorf("core: rank %d: reconstruction record: %w", s.part.Rank, err)
		}
		if !s.part.Owns(e.V) {
			return fmt.Errorf("core: rank %d: reconstruction record (%d→%d) for a vertex of rank %d", s.part.Rank, e.U, e.V, s.part.Owner(e.V))
		}
		s.pend[t] = append(s.pend[t], e)
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
