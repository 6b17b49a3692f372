package core

// The out rows: Algorithm 3's Out_Table — w_{u→c} for every owned u and
// neighbor community c — without a table. The level's graph is symmetric
// (levelInit refuses one that is not), so the out-edges of owned vertex u are
// the in-edges buildRows laid out as its row, weights included, and the only
// thing the rank lacks is the community of each far endpoint. State
// propagation supplies that per vertex, not per edge: when u moves, owner(u)
// tells each rank that owns a neighbor of u once, (u, comm[u]), the receiver
// stores it in ghost[u], and w_{u→c} is the sum of the row's weights whose
// source is in c according to ghost. Algorithm 3 sends the same fact along
// every in-edge, from owner(dst) to owner(src); this is the same flow counted
// once per (vertex, rank), and every reader sees exactly the values the
// per-edge copies would hold (DESIGN.md §2).

// buildNeighborIndex derives, from the in-edge CSR buildRows just laid out,
// the two indexes propagation is addressed by: the transpose rev (count,
// prefix, fill — rows ascending, so every rev list is in ascending row order)
// and the rank list of every owned vertex. No allocation once the arrays have
// reached level 0's size.
func (s *engine) buildNeighborIndex() {
	clear(s.revOff)
	for _, v := range s.adjSrc {
		s.revOff[v+1]++
	}
	for v := 0; v < s.n; v++ {
		s.revOff[v+1] += s.revOff[v]
	}
	s.revRow = resize(s.revRow, len(s.adjSrc))
	s.revW = resize(s.revW, len(s.adjSrc))
	s.nbrOff = resize(s.nbrOff, s.nLoc+1)
	s.nbrRank = s.nbrRank[:0]
	clear(s.rankSeen)
	for li := 0; li < s.nLoc; li++ {
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			v := s.adjSrc[e]
			// revOff[v] is advanced to the end of v's list as it fills and
			// shifted back below.
			p := s.revOff[v]
			s.revOff[v]++
			s.revRow[p], s.revW[p] = uint32(li), s.adjW[e]
			if r := s.part.Owner(v); s.rankSeen[r] != li+1 {
				s.rankSeen[r] = li + 1
				s.nbrRank = append(s.nbrRank, int32(r))
			}
		}
		s.nbrOff[li+1] = int64(len(s.nbrRank))
	}
	copy(s.revOff[1:], s.revOff[:s.n])
	s.revOff[0] = 0
}

// resize returns xs with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	return make([]T, n)
}
