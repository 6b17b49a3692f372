// Package bfs implements level-synchronous breadth-first search, sequential
// and distributed. The paper's messaging runtime was originally engineered
// for Graph500 BFS ("Traversing Trillions of Edges in Real-time", its ref
// [27]); this package demonstrates that the comm substrate built for the
// Louvain reproduction generalizes to the runtime's original workload, and
// provides the classic TEPS benchmark on the same 1D decomposition.
package bfs

import (
	"context"
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// Unreached marks vertices not reachable from the root.
const Unreached = int32(-1)

// Sequential runs BFS from root and returns each vertex's level
// (Unreached = -1 for unreachable vertices).
func Sequential(g *graph.Graph, root graph.V) ([]int32, error) {
	if int(root) >= g.N {
		return nil, fmt.Errorf("bfs: root %d outside [0,%d)", root, g.N)
	}
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = Unreached
	}
	levels[root] = 0
	frontier := []graph.V{root}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []graph.V
		for _, u := range frontier {
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Nbr[i]
				if levels[v] == Unreached {
					levels[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return levels, nil
}

// Result carries a distributed traversal outcome.
type Result struct {
	// Levels of every vertex (gathered; identical on every rank).
	Levels []int32
	// Reached counts visited vertices, EdgesTraversed the directed edge
	// relaxations, and Duration the wall time (TEPS numerator/denominator).
	Reached        int64
	EdgesTraversed int64
	Duration       time.Duration
}

// Parallel runs one rank of a distributed level-synchronous BFS. local is
// this rank's destination-owned edges (graph.SplitEdges form, as for the
// Louvain engine); n the global vertex count.
func Parallel(c *comm.Comm, local graph.EdgeList, n int, root graph.V) (*Result, error) {
	if int(root) >= n {
		return nil, fmt.Errorf("bfs: root %d outside [0,%d)", root, n)
	}
	start := time.Now()
	part := graph.Partition{Rank: c.Rank(), Size: c.Size()}
	nLoc := part.MaxLocalCount(n)

	// In-edge rows of owned vertices. For an undirected graph the in-edge
	// sources are exactly the neighbor lists.
	adjOff, adjSrc, _, err := part.InRows(local, n)
	if err != nil {
		return nil, fmt.Errorf("bfs: %w", err)
	}

	levels := make([]int32, nLoc)
	for i := range levels {
		levels[i] = Unreached
	}
	var frontier []graph.V // owned vertices discovered last round
	if part.Owns(root) {
		levels[part.LocalIndex(root)] = 0
		frontier = append(frontier, root)
	}
	var edgesTraversed int64

	sendPlanes := wire.GetPlanes(c.Size())
	defer sendPlanes.Release()
	var r wire.Reader
	for depth := int32(1); ; depth++ {
		// Expand: notify the owners of every neighbor of the frontier.
		sendPlanes.Reset()
		for _, u := range frontier {
			li := part.LocalIndex(u)
			for p := adjOff[li]; p < adjOff[li+1]; p++ {
				v := adjSrc[p]
				sendPlanes.To(part.Owner(v)).PutU32(v)
				edgesTraversed++
			}
		}
		in, err := c.ExchangePlanes(sendPlanes)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, plane := range in {
			r.Reset(plane)
			for r.More() {
				v := r.U32()
				if err := r.Err(); err != nil {
					return nil, err
				}
				li := part.LocalIndex(v)
				if levels[li] == Unreached {
					levels[li] = depth
					frontier = append(frontier, graph.V(v))
				}
			}
		}
		wire.ReleasePlanes(in)
		anyNew, err := c.AllReduceBool(len(frontier) > 0, false)
		if err != nil {
			return nil, err
		}
		if !anyNew {
			break
		}
	}

	// Gather levels so every rank returns the full vector.
	mine := make([]uint32, nLoc)
	for li, l := range levels {
		mine[li] = uint32(l)
	}
	all, err := c.AllGatherUint32(mine)
	if err != nil {
		return nil, err
	}
	full := make([]int32, n)
	var reached int64
	for r, xs := range all {
		for li, v := range xs {
			gid := li*c.Size() + r
			if gid < n {
				full[gid] = int32(v)
				if int32(v) != Unreached {
					reached++
				}
			}
		}
	}
	totalEdges, err := c.AllReduceUint64(uint64(edgesTraversed), comm.OpSum)
	if err != nil {
		return nil, err
	}
	return &Result{
		Levels:         full,
		Reached:        reached,
		EdgesTraversed: int64(totalEdges),
		Duration:       time.Since(start),
	}, nil
}

// RunInProcess runs BFS on `ranks` in-process ranks over the mem transport
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
