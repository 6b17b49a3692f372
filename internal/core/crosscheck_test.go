package core

import (
	"fmt"
	"math"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// Property-style cross-engine validation: on seeded random weighted graphs
// of varying size and density, the sequential baseline and the parallel
// engine (mem and sim transports, 1/2/4 ranks) must tell one consistent
// story — identical results across transports, reported modularity equal to
// a from-scratch recomputation, quality within a band of the baseline — and
// every run passes the per-level invariant checker (armed by TestMain).

// randomGraph draws an undirected weighted graph: every pair is an edge
// with probability p, weights uniform in [0.5, 5).
func randomGraph(n int, p float64, seed uint64) graph.EdgeList {
	rng := gen.NewRNG(seed)
	var el graph.EdgeList
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w := 0.5 + 4.5*rng.Float64()
				el = append(el, graph.Edge{U: graph.V(i), V: graph.V(j), W: w})
			}
		}
	}
	if len(el) == 0 {
		el = append(el, graph.Edge{U: 0, V: 1 % graph.V(n), W: 1})
	}
	return el
}

func TestCrossEngineOnRandomGraphs(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		seed uint64
	}{
		{30, 0.20, 101},
		{57, 0.10, 202},
		{80, 0.06, 303},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d,p=%.2f", tc.n, tc.p), func(t *testing.T) {
			el := randomGraph(tc.n, tc.p, tc.seed)
			g := graph.Build(el, tc.n)
			seq := must(t)(Sequential(g, Options{}))
			for _, ranks := range []int{1, 2, 4} {
				opt := Options{CollectLevels: true}
				mem, err := RunInProcess(el, tc.n, ranks, opt)
				if err != nil {
					t.Fatalf("ranks=%d mem: %v", ranks, err)
				}
				sim, err := RunSimulated(el, tc.n, ranks, opt, comm.CostModel{})
				if err != nil {
					t.Fatalf("ranks=%d sim: %v", ranks, err)
				}
				// Transport equivalence: the sim transport delivers the
				// same bytes in the same order, so results are
				// bit-identical, not merely close.
				if mem.Q != sim.Q {
					t.Errorf("ranks=%d: mem Q %v != sim Q %v", ranks, mem.Q, sim.Q)
				}
				if len(mem.Membership) != len(sim.Membership) {
					t.Fatalf("ranks=%d: membership lengths differ", ranks)
				}
				for v := range mem.Membership {
					if mem.Membership[v] != sim.Membership[v] {
						t.Errorf("ranks=%d: vertex %d assigned %d (mem) vs %d (sim)",
							ranks, v, mem.Membership[v], sim.Membership[v])
						break
					}
				}
				// Reported Q is the membership's true modularity.
				if got := metrics.Modularity(g, mem.Membership); math.Abs(got-mem.Q) > 1e-6 {
					t.Errorf("ranks=%d: reported Q %v != recomputed %v", ranks, mem.Q, got)
				}
				// Quality band vs the sequential baseline: random graphs
				// have weak structure, so allow a loose tolerance — the
				// point is catching gross divergence, and the exact
				// algebraic properties are enforced by the invariant
				// checker on every level of these very runs.
				if math.Abs(mem.Q-seq.Q) > 0.25 {
					t.Errorf("ranks=%d: parallel Q %v far from sequential %v", ranks, mem.Q, seq.Q)
				}
			}
		})
	}
}

// TestCrossEngineDeterminism: the same input and rank count reproduce the
// identical result run-to-run — the property the chaos acceptance test
// (bit-identical under recoverable faults) builds on.
func TestCrossEngineDeterminism(t *testing.T) {
	el := randomGraph(60, 0.12, 404)
	a, err := RunInProcess(el, 60, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunInProcess(el, 60, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Q != b.Q {
		t.Errorf("repeat run changed Q: %v vs %v", a.Q, b.Q)
	}
	for v := range a.Membership {
		if a.Membership[v] != b.Membership[v] {
			t.Errorf("repeat run changed assignment of vertex %d", v)
			break
		}
	}
}
