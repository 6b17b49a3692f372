// Package sssp implements single-source shortest paths, sequential and
// distributed. Along with BFS (internal/bfs), SSSP was the second workload
// the paper's messaging runtime was validated on ("Scalable Single Source
// Shortest Path Algorithms for Massively Parallel Systems", its ref [28]);
// the distributed version is a label-correcting Bellman–Ford over the same
// BSP substrate and 1D decomposition as the Louvain engine.
package sssp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// Inf marks unreachable vertices.
var Inf = math.Inf(1)

// Sequential computes shortest path distances from root with Dijkstra's
// algorithm (non-negative weights required).
func Sequential(g *graph.Graph, root graph.V) ([]float64, error) {
	if int(root) >= g.N {
		return nil, fmt.Errorf("sssp: root %d outside [0,%d)", root, g.N)
	}
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[root] = 0
	pq := &distHeap{{root, 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue
		}
		u := item.v
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			w := g.NbrW[i]
			if w < 0 {
				return nil, fmt.Errorf("sssp: negative edge weight %v", w)
			}
			v := g.Nbr[i]
			if nd := item.d + w; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{v, nd})
			}
		}
	}
	return dist, nil
}

type distItem struct {
	v graph.V
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Result carries a distributed SSSP outcome.
type Result struct {
	Dist        []float64
	Relaxations int64
	Rounds      int
	Duration    time.Duration
}

// Parallel runs one rank of a distributed label-correcting SSSP: each
// superstep relaxes the edges of vertices whose distance improved last
// round, until a global fixed point. local is this rank's destination-owned
// edges; weights must be non-negative.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, root graph.V) (*Result, error) {
	if int(root) >= n {
		return nil, fmt.Errorf("sssp: root %d outside [0,%d)", root, n)
	}
	start := time.Now()
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)

	// Weights are checked per record, before InRows merges a pair's
	// records by summing them (as graph.Build merges a multigraph's).
	for _, e := range local {
		if e.W < 0 {
			return nil, fmt.Errorf("sssp: negative edge weight %v", e.W)
		}
	}
	adjOff, adjSrc, adjW, err := part.InRows(local, n)
	if err != nil {
		return nil, fmt.Errorf("sssp: %w", err)
	}

	dist := make([]float64, nLoc)
	for i := range dist {
		dist[i] = Inf
	}
	var active []graph.V
	if part.Owns(root) {
		dist[part.LocalIndex(root)] = 0
		active = append(active, root)
	}
	var relaxations int64
	rounds := 0

	sendPlanes := wire.GetPlanes(c.Size())
	defer sendPlanes.Release()
	var r wire.Reader
	for {
		rounds++
		// Relax the out-edges of improved vertices: for owned u, its
		// in-edge list is also its neighbor list (undirected), so send
		// candidate distances to the neighbors' owners.
		sendPlanes.Reset()
		for _, u := range active {
			li := part.LocalIndex(u)
			du := dist[li]
			for p := adjOff[li]; p < adjOff[li+1]; p++ {
				v := adjSrc[p]
				b := sendPlanes.To(part.Owner(v))
				b.PutU32(v)
				b.PutF64(du + adjW[p])
				relaxations++
			}
		}
		in, err := c.ExchangePlanes(sendPlanes)
		if err != nil {
			return nil, err
		}
		active = active[:0]
		improvedSet := map[graph.V]bool{}
		for _, plane := range in {
			r.Reset(plane)
			for r.More() {
				v := r.U32()
				d := r.F64()
				if err := r.Err(); err != nil {
					return nil, err
				}
				li := part.LocalIndex(v)
				if d < dist[li] {
					dist[li] = d
					if !improvedSet[graph.V(v)] {
						improvedSet[graph.V(v)] = true
						active = append(active, graph.V(v))
					}
				}
			}
		}
		wire.ReleasePlanes(in)
		anyActive, err := c.AllReduceBool(len(active) > 0, false)
		if err != nil {
			return nil, err
		}
		if !anyActive {
			break
		}
	}

	// Gather distances (bit-pattern-safe via Float64bits).
	mine := make([]uint32, 2*nLoc)
	for li, d := range dist {
		bits := math.Float64bits(d)
		mine[2*li] = uint32(bits)
		mine[2*li+1] = uint32(bits >> 32)
	}
	all, err := c.AllGatherUint32(mine)
	if err != nil {
		return nil, err
	}
	full := make([]float64, n)
	for r, xs := range all {
		for li := 0; li*2+1 < len(xs); li++ {
			gid := li*c.Size() + r
			if gid < n {
				bits := uint64(xs[2*li]) | uint64(xs[2*li+1])<<32
				full[gid] = math.Float64frombits(bits)
			}
		}
	}
	totalRelax, err := c.AllReduceUint64(uint64(relaxations), comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &Result{
		Dist:        full,
		Relaxations: int64(totalRelax),
		Rounds:      rounds,
		Duration:    time.Since(start),
	}, nil
}

// RunInProcess runs SSSP on `ranks` in-process ranks over the mem transport
// and returns rank 0's result. n <= 0 infers the vertex count from el.
func RunInProcess(el graph.EdgeList, n, ranks int, root graph.V) (*Result, error) {
	if n <= 0 {
		n = el.NumVertices()
	}
	trs := comm.NewMemGroup(ranks)
	parts := graph.SplitEdges(el, len(trs))
	results := make([]*Result, len(trs))
	err := comm.RunGroup(context.Background(), trs, func(r int, c *comm.Comm) (err error) {
		results[r], err = Parallel(c, parts[r], n, root)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
