package labelprop

import (
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
	"parlouvain/internal/par"
)

// Shared runs synchronous LPA with shared-memory threads (the PLP engine of
// Staudt & Meyerhenke): every sweep computes each vertex's label from the
// previous sweep's labeling with Parallel's kernel — reads and writes touch
// disjoint arrays, so the sweep parallelizes over vertex chunks with no
// synchronization and the result is bit-identical for every thread count.
// An active-vertex set prunes later sweeps: a vertex is re-examined only when
// it or a neighbor changed label in the previous sweep. It returns the final
// labels and the per-sweep move counts.
func Shared(g *graph.Graph, opt Options, threads int) ([]graph.V, []int) {
	opt = opt.withDefaults()
	n := g.N
	labels := make([]graph.V, n)
	next := make([]graph.V, n)
	for i := range labels {
		labels[i] = graph.V(i)
	}
	threads = min(max(threads, 1), n)

	kernels := make([]adopter, threads)
	for t := range kernels {
		kernels[t] = adopter{weight: make([]float64, n), seed: opt.Seed}
	}
	active := movesched.NewActiveSet(n, true)
	var movesPerSweep []int
	for sweep := 1; sweep <= opt.MaxSweeps; sweep++ {
		done := opt.startSweep(0, sweep)
		par.ForChunked(n, threads, 1024, func(t, lo, hi int) {
			for u := graph.V(lo); u < graph.V(hi); u++ {
				next[u] = labels[u]
				if a, b := g.Off[u], g.Off[u+1]; active.Active(u) && a < b {
					next[u] = kernels[t].adopt(u, labels[u], g.Nbr[a:b], g.NbrW[a:b], labels, g.SelfW[u])
				}
			}
		})
		// The movers mark the next sweep's active set, serially.
		moves := 0
		for u := range graph.V(n) {
			if next[u] != labels[u] {
				moves++
				active.MarkNext(u)
				for _, v := range g.Nbr[g.Off[u]:g.Off[u+1]] {
					active.MarkNext(v)
				}
			}
		}
		labels, next = next, labels
		movesPerSweep = append(movesPerSweep, moves)
		done(moves)
		if moves == 0 || float64(moves) < opt.MinMoves*float64(n) {
			break
		}
		active.Flip()
	}
	return labels, movesPerSweep
}
