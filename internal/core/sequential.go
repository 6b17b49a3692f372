package core

import (
	"math"

	"parlouvain/internal/graph"
)

// Sequential runs the original Louvain algorithm (Algorithm 1) on g and
// returns the full hierarchy. It is the correctness and quality baseline
// every parallel experiment compares against. Like PLM, Leiden and LNS it
// fails on a bad Options.Warm (CheckWarm) and on a canceled Options.Ctx.
func Sequential(g *graph.Graph, opt Options) (*Result, error) {
	return hierarchy(g, opt, sweepLevel, false)
}

// sweepLevel runs the inner loop of Algorithm 1 on one working graph:
// round-robin sweeps in the level's visit order until one moves nothing.
//
// A sweep skips what cannot move (skipRoom). drift bounds |Δtot_c| + |Δtot_c0|
// for every c, so a u that stays is marked to stay until drift has grown by
// 2·skipRoom(minMoveGain − rival); a marked visit makes relocate's round trip
// alone, which keeps tot's bits, and a move clears the marks of the mover's
// neighbors, whose rows changed. The moves are those of a sweep scoring all.
func sweepLevel(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) ([]int, int, uint64, Stop) {
	order := levelOrder(wg, opt, level)
	scan := newGainScan(wg.N)
	scan.rivals = true
	skipUntil := make([]float64, wg.N)
	var movesPerIter []int
	stop := StopMaxInner
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		for _, u := range order {
			if c0, ku := comm[u], wg.Deg[u]; scan.drift < skipUntil[u] {
				if a := auditSkips; a != nil {
					a.rescoreRow(scan, wg, comm, tot, graph.V(u))
				}
				old := tot[c0]
				tot[c0] = old - ku + ku
				scan.drift = (scan.drift + math.Abs(tot[c0]-old)) * driftUp
				continue
			}
			ok, rival := scan.relocate(wg, comm, tot, graph.V(u))
			if skipUntil[u] = 0; ok {
				moved++
				for _, v := range wg.Nbr[wg.Off[u]:wg.Off[u+1]] {
					skipUntil[v] = 0
				}
			} else if room := skipRoom(minMoveGain-rival, wg.M, wg.Deg[u]); room > 0 {
				skipUntil[u] = scan.drift + 2*room
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if moved == 0 {
			stop = StopConverged
			break
		}
	}
	return movesPerIter, len(movesPerIter), scan.rows, stop
}
