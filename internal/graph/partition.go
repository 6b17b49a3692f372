package graph

import "fmt"

// Partition is the paper's 1D decomposition: vertices and their edge lists
// are split linearly across P ranks with a simple modulo function
// (Section IV-A). The same rank owns all information related to its
// vertices: edges, vertex and community state.
type Partition struct {
	Rank int // this rank, 0 <= Rank < Size
	Size int // number of ranks, >= 1
}

// Owner returns the rank that owns vertex v. Owner and LocalIndex divide in
// 32 bits, the width of a vertex id, which is cheaper than a 64-bit int
// division and gives the same result for any rank count that fits a V.
func (p Partition) Owner(v V) int {
	return int(uint32(v) % uint32(p.Size))
}

// Owns reports whether this rank owns vertex v.
func (p Partition) Owns(v V) bool {
	return p.Owner(v) == p.Rank
}

// LocalIndex maps an owned global vertex id to a dense local index
// (v / Size). It is only meaningful when Owns(v) is true.
func (p Partition) LocalIndex(v V) int {
	return int(uint32(v) / uint32(p.Size))
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
// delivered once. The result is indexed by rank; each part keeps el's order,
// and the parts are carved from one allocation with cap == len, so that
// appending to one part copies it instead of overwriting the next. A rank
// that receives nothing gets a nil part.
func SplitEdges(el EdgeList, size int) []EdgeList {
	p := Partition{Size: size}
	// next[r] counts part r's records, then becomes its fill cursor.
	next := make([]int, size)
	total := 0
	for i := range el {
		e := &el[i] // a pointer, not a copy: the copy costs a sixth of the time
		next[p.Owner(e.V)]++
		total++
		if e.U != e.V {
			next[p.Owner(e.U)]++
			total++
		}
	}
	all := make(EdgeList, total)
	out := make([]EdgeList, size)
	start := 0
	for r, c := range next {
		if c > 0 {
			out[r] = all[start : start+c : start+c]
		}
		next[r] = start
		start += c
	}
	for i := range el {
		// (src, dst) with dst owned by the receiving rank.
		e := &el[i]
		ov := p.Owner(e.V)
		all[next[ov]] = *e
		next[ov]++
		if e.U != e.V {
			ou := p.Owner(e.U)
			all[next[ou]] = Edge{e.V, e.U, e.W}
			next[ou]++
		}
	}
	return out
}

// InRows lays out this rank's destination-owned edges (SplitEdges form) as
// in-edge rows, the adjacency lpa runs on: the sources of owned vertex li
// are src[off[li]:off[li+1]], ascending, with weights w at the same
// positions, and the records of a (source, destination) pair are merged
// into one entry, their weights summed in input order. There is a row for
// each of MaxLocalCount(n) local indices. local is read, never written. An
// edge that fails Check(n), or whose destination this rank does not own, is
// an error naming it.
func (p Partition) InRows(local EdgeList, n int) (off []int64, src []V, w []float64, err error) {
	recs := make(EdgeList, len(local))
	for i, e := range local {
		if err := e.Check(n); err != nil {
			return nil, nil, nil, err
		}
		if !p.Owns(e.V) {
			return nil, nil, nil, fmt.Errorf("edge (%d,%d) given to rank %d, which does not own %d", e.U, e.V, p.Rank, e.V)
		}
		recs[i] = Edge{V(p.LocalIndex(e.V)), e.U, e.W}
	}
	recs = sortMerged(recs, n)
	nLoc := p.MaxLocalCount(n)
	off = make([]int64, nLoc+1)
	src = make([]V, len(recs))
	w = make([]float64, len(recs))
	for i, e := range recs {
		off[e.U+1]++
		src[i], w[i] = e.V, e.W
	}
	for i := 0; i < nLoc; i++ {
		off[i+1] += off[i]
	}
	return off, src, w, nil
}
