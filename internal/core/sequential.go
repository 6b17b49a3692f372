package core

import "parlouvain/internal/graph"

// Sequential runs the original Louvain algorithm (Algorithm 1) on g and
// returns the full hierarchy. It is the correctness and quality baseline
// every parallel experiment compares against.
func Sequential(g *graph.Graph, opt Options) *Result {
	return hierarchy(g, opt, sweepLevel, false)
}

// sweepLevel runs the inner loop of Algorithm 1 on one working graph:
// round-robin sweeps in the level's visit order until one moves nothing.
func sweepLevel(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) ([]int, int) {
	order := levelOrder(wg, opt, level)
	scan := newGainScan(wg.N)
	var movesPerIter []int
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		for _, u := range order {
			if scan.relocate(wg, comm, tot, graph.V(u)) {
				moved++
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if opt.TraceMoves != nil {
			opt.TraceMoves(level, iter, moved, wg.N)
		}
		if moved == 0 {
			break
		}
	}
	return movesPerIter, len(movesPerIter)
}
