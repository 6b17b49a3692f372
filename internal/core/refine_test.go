package core

import (
	"fmt"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

func TestSplitDisconnectedSplitsArtificialMerge(t *testing.T) {
	// Two disjoint triangles forced into one community.
	el := graph.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
	}
	g := graph.Build(el, 0)
	bad := []graph.V{9, 9, 9, 9, 9, 9}
	refined, splits := SplitDisconnected(g, bad)
	if splits != 1 {
		t.Errorf("splits = %d, want 1", splits)
	}
	if refined[0] != refined[1] || refined[1] != refined[2] {
		t.Errorf("triangle A split: %v", refined)
	}
	if refined[0] == refined[3] {
		t.Errorf("disconnected parts not split: %v", refined)
	}
	// Splitting a disconnected community must raise modularity.
	if qa, qb := metrics.Modularity(g, bad), metrics.Modularity(g, refined); qb <= qa {
		t.Errorf("split did not improve Q: %v -> %v", qa, qb)
	}
}

func TestSplitDisconnectedNoopOnConnected(t *testing.T) {
	el, _, err := gen.RingOfCliques(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 0)
	res := must(t)(Sequential(g, Options{}))
	refined, splits := SplitDisconnected(g, res.Membership)
	if splits != 0 {
		t.Errorf("splits = %d on connected communities", splits)
	}
	// Same structure (labels may be renumbered).
	sim, err := metrics.Compare(refined, res.Membership)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI != 1 {
		t.Errorf("refinement changed connected communities: NMI %v", sim.NMI)
	}
}

func TestSplitDisconnectedNeverLowersQ(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(800, 0.4, 91))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 800)
	res, err := RunInProcess(el, 800, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, _ := SplitDisconnected(g, res.Membership)
	qa := metrics.Modularity(g, res.Membership)
	qb := metrics.Modularity(g, refined)
	if qb < qa-1e-12 {
		t.Errorf("refinement lowered Q: %v -> %v", qa, qb)
	}
}

func TestSplitDisconnectedIsolatedVertices(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}}, 4)
	refined, _ := SplitDisconnected(g, []graph.V{0, 0, 0, 0})
	if refined[0] != refined[1] {
		t.Error("connected pair split")
	}
	if refined[2] == refined[0] || refined[3] == refined[2] {
		t.Errorf("isolated vertices share labels: %v", refined)
	}
}

// TestReturnRuleBreaksTwoCycle: two adjacent vertices that have just swapped
// communities A < B may not both swap back. Vertex 0 sits with the triangle
// 0-2-3 in A = 2 and vertex 1 with the triangle 1-4-5 in B = 4, joined by the
// edge 0–1. After the swap (0 → B, 1 → A) each one's best move is straight
// back: vertex 0, now in the higher label, is offered A; vertex 1 is kept out
// of B, which still counts toward its rival. One iteration later the rule has
// lapsed and neither is kept from anything.
func TestReturnRuleBreaksTwoCycle(t *testing.T) {
	var el graph.EdgeList
	for _, tri := range [][3]graph.V{{0, 2, 3}, {1, 4, 5}} {
		el = append(el, graph.Edge{U: tri[0], V: tri[1], W: 1}, graph.Edge{U: tri[0], V: tri[2], W: 1}, graph.Edge{U: tri[1], V: tri[2], W: 1})
	}
	el = append(el, graph.Edge{U: 0, V: 1, W: 1})
	const n, a, b = 6, 2, 4
	for _, ranks := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			g := newScriptedGroup(t, el, n, ranks, 1)
			// score returns (best gain, target, rival) of global vertex v.
			score := func(v graph.V) (float64, graph.V, float64) {
				for _, s := range g.engines {
					if s.part.Owns(v) {
						gain, to, rival, _ := s.score(s.scan[0], s.part.LocalIndex(v))
						return gain, to, rival
					}
				}
				t.Fatalf("no rank owns vertex %d", v)
				return 0, 0, 0
			}
			g.iterate(t, map[graph.V]graph.V{0: a, 3: a, 1: b, 5: b})
			g.iterate(t, map[graph.V]graph.V{0: b, 1: a})
			if gain, to, _ := score(0); to != a || !(gain > 0) {
				t.Errorf("vertex 0, back from A into B: best move (%g, %d), want its return to A = %d", gain, to, a)
			}
			if gain, to, rival := score(1); to != a || gain != 0 || !(rival > 0) {
				t.Errorf("vertex 1, just in from B: best move (%g, %d) with rival %g, want (0, %d) with B's positive gain as rival", gain, to, rival, a)
			}
			g.iterate(t, nil)
			if gain, to, _ := score(1); to != b || !(gain > 0) {
				t.Errorf("vertex 1 one iteration later: best move (%g, %d), want its return to B = %d", gain, to, b)
			}
			if gain, to, _ := score(0); to != a || !(gain > 0) {
				t.Errorf("vertex 0 one iteration later: best move (%g, %d), want A = %d", gain, to, a)
			}
		})
	}
}
