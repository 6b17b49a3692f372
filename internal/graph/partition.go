package graph

// Partition is the paper's 1D decomposition: vertices and their edge lists
// are split linearly across P ranks with a simple modulo function
// (Section IV-A). The same rank owns all information related to its
// vertices: edges, vertex and community state.
type Partition struct {
	Rank int // this rank, 0 <= Rank < Size
	Size int // number of ranks, >= 1
}

// Owner returns the rank that owns vertex v.
func (p Partition) Owner(v V) int {
	return int(v) % p.Size
}

// Owns reports whether this rank owns vertex v.
func (p Partition) Owns(v V) bool {
	return p.Owner(v) == p.Rank
}

// LocalIndex maps an owned global vertex id to a dense local index
// (v / Size). It is only meaningful when Owns(v) is true.
func (p Partition) LocalIndex(v V) int {
	return int(v) / p.Size
}

// GlobalID inverts LocalIndex for this rank.
func (p Partition) GlobalID(local int) V {
	return V(local*p.Size + p.Rank)
}

// LocalCount returns how many of the n global vertices this rank owns.
func (p Partition) LocalCount(n int) int {
	if n <= 0 {
		return 0
	}
	full := n / p.Size
	if p.Rank < n%p.Size {
		return full + 1
	}
	return full
}

// MaxLocalCount returns the largest LocalCount over all ranks, the size to
// which per-vertex local arrays must be allocated.
func (p Partition) MaxLocalCount(n int) int {
	return (n + p.Size - 1) / p.Size
}

// SplitEdges routes each undirected edge of el to the ranks that need it in
// their In_Table: edge {a,b} is delivered to owner(a) as (b,a) and to
// owner(b) as (a,b) — destination-owned orientation. Self-loops are
// delivered once. The result is indexed by rank; each part keeps el's order
// and is allocated once at its exact size (cap == len).
func SplitEdges(el EdgeList, size int) []EdgeList {
	p := Partition{Size: size}
	count := make([]int, size)
	for _, e := range el {
		count[p.Owner(e.V)]++
		if e.U != e.V {
			count[p.Owner(e.U)]++
		}
	}
	out := make([]EdgeList, size)
	for r, c := range count {
		if c > 0 {
			out[r] = make(EdgeList, 0, c)
		}
	}
	for _, e := range el {
		// (src, dst) with dst owned by the receiving rank.
		out[p.Owner(e.V)] = append(out[p.Owner(e.V)], Edge{e.U, e.V, e.W})
		if e.U != e.V {
			out[p.Owner(e.U)] = append(out[p.Owner(e.U)], Edge{e.V, e.U, e.W})
		}
	}
	return out
}
