package core

import (
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
)

// LNS runs a Browet-style local neighbourhood search (Browet, Absil & Van
// Dooren 2013): instead of full round-robin sweeps, an active queue seeded
// with every vertex is drained greedily. Popping a vertex evaluates the
// standard Louvain gain over its neighbour communities; an accepted move
// re-activates exactly the vertices whose best choice could have changed —
// the mover's neighbourhood. Settled regions of the graph are never
// re-scanned, so each level does work proportional to the churn, not to n.
// When the queue drains the partition is aggregated (Algorithm 1's
// condense) and the search repeats on the supergraph.
//
// Moves require strictly positive gain and aggregation preserves
// modularity, so the per-level Q trajectory is monotone non-decreasing.
func LNS(g *graph.Graph, opt Options) (*Result, error) {
	return hierarchy(g, opt, lnsLevel, false)
}

// lnsLevel drains one level's active queue. The queue has no sweep
// structure, so the level reports its accepted moves as one entry and the
// full-graph passes its pops amount to as the iteration count.
func lnsLevel(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) ([]int, int, uint64, Stop) {
	n := wg.N
	queue := movesched.NewQueue(n)
	for _, u := range levelOrder(wg, opt, level) {
		queue.Push(u)
	}
	// MaxInner bounds the work like a sweep cap would: at most MaxInner
	// full-graph-equivalents of pops per level.
	maxPops := opt.MaxInner * n

	scan := newGainScan(n)
	pops, moved := 0, 0
	for pops < maxPops {
		u, ok := queue.Pop()
		if !ok {
			break
		}
		pops++
		if ok, _ := scan.relocate(wg, comm, tot, graph.V(u)); ok {
			moved++
			// The local neighbourhood: re-examine the vertices whose best
			// community may have changed.
			wg.Neighbors(graph.V(u), func(v graph.V, w float64) bool {
				if uint32(v) != u {
					queue.Push(uint32(v))
				}
				return true
			})
		}
	}
	stop := StopMaxInner
	if queue.Len() == 0 {
		stop = StopConverged
	}
	return []int{moved}, (pops + n - 1) / n, scan.rows, stop
}
