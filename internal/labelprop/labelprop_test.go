package labelprop

import (
	"context"
	"math"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// runParallel drives Parallel over an in-process mem group (the registry
// driver in internal/algo is the production path; this keeps the package
// self-contained).
func runParallel(t *testing.T, el graph.EdgeList, n, ranks int, opt Options) ([]graph.V, []int) {
	t.Helper()
	if n <= 0 {
		n = el.NumVertices()
	}
	parts := graph.SplitEdges(el, ranks)
	labels := make([][]graph.V, ranks)
	moves := make([][]int, ranks)
	err := comm.RunGroup(context.Background(), comm.NewMemGroup(ranks), func(r int, c *comm.Comm) (err error) {
		labels[r], moves[r], err = Parallel(c, parts[r], n, opt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return labels[0], moves[0]
}

// TestParallelTwoCliques: a ring of 5-cliques is recovered at one and three
// ranks.
func TestParallelTwoCliques(t *testing.T) {
	el, truth, err := gen.RingOfCliques(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3} {
		labels, moves := runParallel(t, el, 0, ranks, Options{})
		sim, err := metrics.Compare(labels, truth)
		if err != nil {
			t.Fatal(err)
		}
		if sim.NMI < 0.8 {
			t.Errorf("ranks=%d: NMI = %v, want > 0.8", ranks, sim.NMI)
		}
		if len(moves) == 0 {
			t.Errorf("ranks=%d: no sweeps traced", ranks)
		}
	}
}

// TestParallelIsolatedVerticesKeepOwnLabel: a vertex with no edge has no
// label to adopt, and the edge's endpoints take labels from their component.
func TestParallelIsolatedVerticesKeepOwnLabel(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		labels, _ := runParallel(t, graph.EdgeList{{U: 0, V: 1, W: 1}}, 4, ranks, Options{})
		if labels[2] != 2 || labels[3] != 3 {
			t.Errorf("ranks=%d: isolated labels changed: %v", ranks, labels)
		}
		if labels[0] > 1 || labels[1] > 1 {
			t.Errorf("ranks=%d: edge endpoints took a label from outside their component: %v", ranks, labels)
		}
	}
}

func TestParallelMatchesStructure(t *testing.T) {
	el, truth, err := gen.LFR(gen.DefaultLFR(2000, 0.2, 6))
	if err != nil {
		t.Fatal(err)
	}
	labels, moves := runParallel(t, el, 2000, 4, Options{})
	if len(labels) != 2000 {
		t.Fatalf("labels len %d", len(labels))
	}
	if len(moves) == 0 {
		t.Fatalf("no sweeps traced")
	}
	sim, err := metrics.Compare(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous LPA is noisier than Louvain; structure must still be
	// strongly recovered on a low-mixing graph.
	if sim.NMI < 0.7 {
		t.Errorf("NMI = %v, want > 0.7", sim.NMI)
	}
}

func TestParallelDeterministicAcrossRankCounts(t *testing.T) {
	el, _, err := gen.SBM(gen.SBMConfig{N: 200, Communities: 4, PIn: 0.4, POut: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := runParallel(t, el, 200, 1, Options{})
	b, _ := runParallel(t, el, 200, 4, Options{})
	// Synchronous updates are independent of the partitioning: the
	// label vectors must be identical, not merely similar.
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("labels differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestParallelValidEdge(t *testing.T) {
	labels, _ := runParallel(t, graph.EdgeList{{U: 0, V: 1, W: 1}}, 0, 1, Options{})
	if len(labels) != 2 {
		t.Fatalf("labels: %v", labels)
	}
}

// TestParallelRejectsBadEdge: an id outside the vertex space is an error from
// the load (it used to index past the local arrays), as a non-finite weight is.
func TestParallelRejectsBadEdge(t *testing.T) {
	trs := comm.NewMemGroup(1)
	defer trs[0].Close()
	for want, ed := range map[string]graph.Edge{
		"labelprop: edge (9,1) outside vertex space 3":    {U: 9, V: 1, W: 1},
		"labelprop: edge (1,2) has non-finite weight NaN": {U: 1, V: 2, W: math.NaN()},
	} {
		_, _, err := Parallel(comm.New(trs[0]), graph.EdgeList{{U: 0, V: 1, W: 1}, ed}, 3, Options{})
		if err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxSweeps != 64 || o.MinMoves != 0.001 {
		t.Errorf("defaults: %+v", o)
	}
}
