package core

import (
	"fmt"

	"parlouvain/internal/graph"
)

// SplitDisconnected post-processes an assignment so that every community is
// internally connected, splitting each disconnected community into its
// connected components. Louvain (sequential and parallel alike) can produce
// internally disconnected communities — the defect later addressed by the
// Leiden refinement — and splitting them never decreases modularity.
// Returns the refined assignment (compact labels) and the number of
// communities that were split.
func SplitDisconnected(g *graph.Graph, assign []graph.V) ([]graph.V, int) {
	if len(assign) != g.N {
		panic(fmt.Sprintf("core: SplitDisconnected: assignment has %d entries for %d vertices", len(assign), g.N))
	}
	out := make([]graph.V, g.N)
	const unseen = ^graph.V(0)
	for i := range out {
		out[i] = unseen
	}
	// BFS within communities: a component only spreads across edges whose
	// endpoints share the original community.
	next := graph.V(0)
	splitSource := map[graph.V]int{}
	var stack []graph.V
	for s := 0; s < g.N; s++ {
		if out[s] != unseen {
			continue
		}
		label := next
		next++
		splitSource[assign[s]]++
		out[s] = label
		stack = append(stack[:0], graph.V(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Nbr[i]
				if out[v] == unseen && assign[v] == assign[u] {
					out[v] = label
					stack = append(stack, v)
				}
			}
		}
	}
	splits := 0
	for _, pieces := range splitSource {
		if pieces > 1 {
			splits += pieces - 1
		}
	}
	return out, splits
}
