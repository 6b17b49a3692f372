// Package graph provides the weighted undirected graph representation,
// the 1D modulo vertex partition (Section IV-A of the paper) and edge-list
// I/O shared by all other packages.
//
// Conventions (documented in DESIGN.md §5):
//   - Graphs are undirected and weighted. Edges are stored internally in
//     both orientations; self-loops are stored once.
//   - The weighted degree k(u) counts a self-loop of weight w twice,
//     following the standard Louvain convention, so that 2m = Σ_u k(u).
package graph

import "fmt"

// V is a vertex identifier. All experiments in this repository use graphs
// with fewer than 2^32 vertices; ids are packed in pairs into uint64 hash
// keys (see internal/hashfn).
type V = uint32

// Edge is a weighted undirected edge {U, V} of weight W. Self-loops (U == V)
// are allowed.
type Edge struct {
	U, V V
	W    float64
}

// EdgeList is the on-disk and generator-output graph form: an unordered
// multiset of undirected edges. Duplicate {U,V} entries are summed into a
// single weighted edge when a Graph is built.
type EdgeList []Edge

// MaxVertex returns the largest vertex id referenced, or 0 for an empty list.
func (el EdgeList) MaxVertex() V {
	var max V
	for _, e := range el {
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	return max
}

// NumVertices returns MaxVertex()+1, or 0 for an empty list.
func (el EdgeList) NumVertices() int {
	if len(el) == 0 {
		return 0
	}
	return int(el.MaxVertex()) + 1
}

// TotalWeight returns the sum of single-counted edge weights (the paper's m).
func (el EdgeList) TotalWeight() float64 {
	s := 0.0
	for _, e := range el {
		s += e.W
	}
	return s
}

// CheckWeight returns an error naming e when its weight is NaN or ±Inf. The
// engines' accumulators read a sum of zero as "nothing here yet" and a NaN sum
// is never zero, so the file readers call it, and everything that takes edges
// from a caller calls Check. Build does not: an edge list made in memory
// reaches Build, and an engine run on its graph, unchecked.
func (e Edge) CheckWeight() error {
	if e.W-e.W != 0 { // NaN for NaN and ±Inf, zero for everything else
		return fmt.Errorf("edge (%d,%d) has non-finite weight %v", e.U, e.V, e.W)
	}
	return nil
}

// Check returns an error naming e when an endpoint lies outside the vertex
// space [0, n) or the weight is not finite: the one test every engine applies
// to an edge it was handed (the rank-0 gather and the direct whole-graph
// path, par-louvain's load, and Partition.InRows for lpa) before it indexes
// by the ids.
func (e Edge) Check(n int) error {
	if int(max(e.U, e.V)) < n && e.W-e.W == 0 {
		return nil // the whole test for a good edge, small enough to inline
	}
	return e.checkFailed(n)
}

func (e Edge) checkFailed(n int) error {
	if int(e.U) >= n || int(e.V) >= n {
		return fmt.Errorf("edge (%d,%d) outside vertex space %d", e.U, e.V, n)
	}
	return e.CheckWeight()
}

// sortMerged sorts recs in place by (U, V) and merges the records of each
// pair into one, summing their weights in input order; it returns the merged
// prefix of recs. Every id must be below n. Two stable counting passes, by V
// into one scratch list and then by U back into recs, make it linear in
// len(recs) + n: the ids are dense, so a count per id is cheaper than a sort
// by key. A pair's records then sit next to each other in input order, and
// one forward pass sums them.
func sortMerged(recs EdgeList, n int) EdgeList {
	if len(recs) == 0 {
		return recs
	}
	pos := make([]int, n+1)
	tmp := make(EdgeList, len(recs))
	for _, e := range recs {
		pos[e.V+1]++
	}
	for i := 0; i < n; i++ {
		pos[i+1] += pos[i]
	}
	for _, e := range recs {
		tmp[pos[e.V]] = e
		pos[e.V]++
	}
	clear(pos)
	for _, e := range tmp {
		pos[e.U+1]++
	}
	for i := 0; i < n; i++ {
		pos[i+1] += pos[i]
	}
	for _, e := range tmp {
		recs[pos[e.U]] = e
		pos[e.U]++
	}
	merged := recs[:1]
	for _, e := range recs[1:] {
		if last := &merged[len(merged)-1]; last.U == e.U && last.V == e.V {
			last.W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// Graph is a compressed sparse row view of an undirected weighted graph.
// Neighbor lists exclude self-loops, which are tracked separately in SelfW.
type Graph struct {
	N int // number of vertices (ids 0..N-1)

	// CSR adjacency: neighbors of u are Nbr[Off[u]:Off[u+1]] with weights
	// NbrW at the same positions. Every undirected edge {u,v}, u != v,
	// appears in both lists.
	Off  []int64
	Nbr  []V
	NbrW []float64

	// SelfW[u] is the single-counted weight of u's self-loop (0 if none).
	SelfW []float64

	// Deg[u] is the weighted degree k(u): sum of incident edge weights
	// with self-loops counted twice.
	Deg []float64

	// M is the total single-counted edge weight (the modularity
	// normalizer m in Equations 3 and 4). Sum(Deg) == 2*M.
	M float64
}

// Build constructs a Graph from an edge list. n is the number of vertices;
// pass 0 to infer it as MaxVertex()+1. Build is orientation-blind: {u,v} and
// {v,u} are the same edge, and duplicate edges are merged by summing their
// weights in input order.
func Build(el EdgeList, n int) *Graph {
	if n <= 0 {
		n = el.NumVertices()
	}
	can := make(EdgeList, len(el))
	for i, e := range el {
		can[i] = Edge{min(e.U, e.V), max(e.U, e.V), e.W}
	}
	can = sortMerged(can, n)
	g := &Graph{
		N:     n,
		Off:   make([]int64, n+1),
		SelfW: make([]float64, n),
		Deg:   make([]float64, n),
	}
	// Count directed entries (both orientations, excluding self-loops).
	for _, e := range can {
		if e.U == e.V {
			continue
		}
		g.Off[e.U+1]++
		g.Off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.Off[i+1] += g.Off[i]
	}
	g.Nbr = make([]V, g.Off[n])
	g.NbrW = make([]float64, g.Off[n])
	fill := make([]int64, n)
	for _, e := range can {
		g.M += e.W
		if e.U == e.V {
			g.SelfW[e.U] += e.W
			g.Deg[e.U] += 2 * e.W
			continue
		}
		pu := g.Off[e.U] + fill[e.U]
		g.Nbr[pu], g.NbrW[pu] = e.V, e.W
		fill[e.U]++
		pv := g.Off[e.V] + fill[e.V]
		g.Nbr[pv], g.NbrW[pv] = e.U, e.W
		fill[e.V]++
		g.Deg[e.U] += e.W
		g.Deg[e.V] += e.W
	}
	return g
}

// NumEdges returns the number of distinct undirected edges including
// self-loops.
func (g *Graph) NumEdges() int {
	n := len(g.Nbr) / 2
	for _, w := range g.SelfW {
		if w != 0 {
			n++
		}
	}
	return n
}

// Neighbors calls fn for every neighbor v of u (excluding self-loops) with
// the edge weight. Iteration stops early if fn returns false.
func (g *Graph) Neighbors(u V, fn func(v V, w float64) bool) {
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		if !fn(g.Nbr[i], g.NbrW[i]) {
			return
		}
	}
}

// Degree returns the unweighted neighbor count of u, excluding self-loops.
func (g *Graph) Degree(u V) int {
	return int(g.Off[u+1] - g.Off[u])
}

// EdgeList converts the graph back to a canonical single-orientation list,
// including self-loops.
func (g *Graph) EdgeList() EdgeList {
	out := make(EdgeList, 0, len(g.Nbr)/2+g.N/8)
	for u := 0; u < g.N; u++ {
		if g.SelfW[u] != 0 {
			out = append(out, Edge{V(u), V(u), g.SelfW[u]})
		}
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			if v := g.Nbr[i]; V(u) <= v {
				out = append(out, Edge{V(u), v, g.NbrW[i]})
			}
		}
	}
	return out
}
