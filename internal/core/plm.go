package core

import (
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/par"
)

// PLM runs the shared-memory parallel Louvain move phase in the style of
// Staudt & Meyerhenke's NetworKit PLM, scheduled by internal/movesched: each
// level greedily colors the working graph, then sweeps the color batches —
// all moves of a batch are *decided* concurrently against frozen community
// state (same-color vertices are never adjacent, so no decision invalidates
// another's neighbor-community weights) and *applied* serially in schedule
// order, each re-checked against the live community totals so only
// strictly-improving moves land. An active-vertex set prunes the sweeps: a
// vertex is re-examined only when it or a neighbor moved in the previous
// sweep (Lu & Halappanavar 2014).
//
// Because decisions read only frozen state and application order is fixed
// by the schedule, the result is bit-identical for every Options.Threads
// value — the thread count changes wall clock, never the partition — and
// every applied move has positive re-checked gain, so the per-level Q
// trajectory is monotone non-decreasing.
func PLM(g *graph.Graph, opt Options) (*Result, error) {
	return hierarchy(g, opt, plmLevel, false)
}

// plmLevel runs one level's color-batched move phase.
func plmLevel(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) ([]int, int, uint64, Stop) {
	n := wg.N
	order := levelOrder(wg, opt, level)
	sched := movesched.Greedy(n, order, func(u uint32, emit func(v uint32)) {
		for _, v := range wg.Nbr[wg.Off[u]:wg.Off[u+1]] {
			emit(v)
		}
	})

	threads := opt.Threads
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	scans := make([]*gainScan, threads)
	for t := range scans {
		scans[t] = newGainScan(n)
	}
	// Decisions, indexed by vertex: the chosen community plus the
	// neighbor-community weights the apply-phase gain re-check needs.
	bestTo := make([]graph.V, n)
	wBest := make([]float64, n)
	wStay := make([]float64, n)

	var movesPerIter []int
	active := movesched.NewActiveSet(n, true)
	stop := StopMaxInner
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		for _, batch := range sched.Batches {
			// Decide: every vertex of the batch scans its neighborhood
			// against state frozen at batch start. No writes to comm/tot
			// happen until the batch's serial apply, so the outcome is
			// independent of how the batch is chunked across threads.
			par.ForChunked(len(batch), threads, 256, func(t, lo, hi int) {
				for _, u := range batch[lo:hi] {
					c0 := comm[u]
					bestTo[u] = c0
					ku := wg.Deg[u]
					if ku == 0 || !active.Active(u) {
						continue
					}
					bestTo[u], _, wStay[u], wBest[u], _ = scans[t].best(wg, comm, tot, graph.V(u), tot[c0]-ku)
				}
			})
			// Apply: serial, in schedule order. Same-color vertices are
			// never adjacent, so the decided neighbor-community weights are
			// still exact here; only the community totals may have drifted
			// (same-batch movers entering or leaving c0/bestC), so the gain
			// is re-checked against the live totals before the move lands —
			// every applied move strictly improves Q.
			for _, u := range batch {
				bestC := bestTo[u]
				c0 := comm[u]
				if bestC == c0 {
					continue
				}
				ku := wg.Deg[u]
				stay := metrics.DeltaQ(wStay[u], tot[c0]-ku, ku, wg.M)
				gain := metrics.DeltaQ(wBest[u], tot[bestC], ku, wg.M)
				if gain-stay > minMoveGain {
					comm[u] = bestC
					tot[c0] -= ku
					tot[bestC] += ku
					moved++
					// The pruning rule: the mover and its neighborhood are
					// the only vertices whose best choice may have changed.
					active.MarkNext(u)
					for _, v := range wg.Nbr[wg.Off[u]:wg.Off[u+1]] {
						active.MarkNext(v)
					}
				}
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if moved == 0 || active.Flip() == 0 {
			stop = StopConverged
			break
		}
	}
	var rows uint64
	for _, sc := range scans {
		rows += sc.rows
	}
	return movesPerIter, len(movesPerIter), rows, stop
}
