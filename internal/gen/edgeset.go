package gen

import "parlouvain/internal/graph"

// edgeSet collects the edges of a simple undirected graph: self-loops and
// repeats are refused, and every accepted pair is appended to el as
// (min, max) in call order. It keeps no hash set: each vertex has a
// neighbour list carved from one backing array by the degree targets, and a
// repeat check scans the shorter of the two lists. A vertex that outgrows
// its share reallocates only its own list.
type edgeSet struct {
	nbr [][]uint32
	el  graph.EdgeList
	// work and leftover are match's buffers, reused across rounds and calls.
	work, leftover []uint32
}

// newEdgeSet sizes the lists for vertices 0..len(deg)-1 by their degree
// targets and the edge list for Σdeg/2 edges.
func newEdgeSet(deg []int) *edgeSet {
	total := 0
	for _, k := range deg {
		total += k
	}
	back := make([]uint32, total)
	nbr := make([][]uint32, len(deg))
	off := 0
	for v, k := range deg {
		nbr[v] = back[off : off : off+k]
		off += k
	}
	return &edgeSet{nbr: nbr, el: make(graph.EdgeList, 0, total/2)}
}

// add inserts the edge {a, b} and reports whether it was new.
func (s *edgeSet) add(a, b uint32) bool {
	if a == b {
		return false
	}
	na, nb := s.nbr[a], s.nbr[b]
	short, other := na, b
	if len(nb) < len(na) {
		short, other = nb, a
	}
	for _, x := range short {
		if x == other {
			return false
		}
	}
	s.nbr[a], s.nbr[b] = append(na, b), append(nb, a)
	if a > b {
		a, b = b, a
	}
	s.el = append(s.el, graph.Edge{U: a, V: b, W: 1})
	return true
}

// match pairs up a stub multiset into simple edges. With truth non-nil, a
// pair inside one community of truth is refused (used to keep external edges
// external). Unmatchable leftovers are dropped after a fixed number of
// reshuffle rounds, slightly shortening some degrees — the standard LFR
// relaxation.
func (s *edgeSet) match(rng *RNG, stubs []uint32, truth []graph.V) {
	work, leftover := append(s.work[:0], stubs...), s.leftover
	for round := 0; round < 8 && len(work) >= 2; round++ {
		rng.Shuffle(work)
		leftover = leftover[:0]
		for i := 0; i+1 < len(work); i += 2 {
			a, b := work[i], work[i+1]
			if (truth != nil && truth[a] == truth[b]) || !s.add(a, b) {
				leftover = append(leftover, a, b)
			}
		}
		if len(work)%2 == 1 {
			leftover = append(leftover, work[len(work)-1])
		}
		work, leftover = leftover, work
	}
	s.work, s.leftover = work, leftover
}
