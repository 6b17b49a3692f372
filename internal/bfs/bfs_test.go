package bfs

import (
	"math"
	"testing"
	"testing/quick"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

func TestSequentialPath(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}, 5)
	levels, err := Sequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, Unreached}
	for i := range want {
		if levels[i] != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, levels[i], want[i])
		}
	}
}

func TestSequentialBadRoot(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}}, 0)
	if _, err := Sequential(g, 99); err == nil {
		t.Error("bad root accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	el, err := gen.RMAT(gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 10
	g := graph.Build(el, n)
	want, err := Sequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 7} {
		res, err := RunInProcess(el, n, ranks, 0)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for v := range want {
			if res.Levels[v] != want[v] {
				t.Fatalf("ranks=%d: level[%d] = %d, want %d", ranks, v, res.Levels[v], want[v])
			}
		}
		if res.Reached <= 0 || res.EdgesTraversed <= 0 {
			t.Errorf("ranks=%d: counters %d/%d", ranks, res.Reached, res.EdgesTraversed)
		}
	}
}

func TestParallelMatchesSequentialQuick(t *testing.T) {
	f := func(raw []struct{ U, V uint8 }, rootRaw uint8) bool {
		const n = 64
		el := make(graph.EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, graph.Edge{U: graph.V(r.U % n), V: graph.V(r.V % n), W: 1})
		}
		root := graph.V(rootRaw % n)
		g := graph.Build(el, n)
		want, err := Sequential(g, root)
		if err != nil {
			return false
		}
		res, err := RunInProcess(el, n, 3, root)
		if err != nil {
			return false
		}
		for v := range want {
			if res.Levels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParallelDisconnected(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}
	res, err := RunInProcess(el, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[2] != Unreached || res.Levels[3] != Unreached || res.Levels[4] != Unreached {
		t.Errorf("unreachable vertices got levels: %v", res.Levels)
	}
	if res.Reached != 2 {
		t.Errorf("reached = %d, want 2", res.Reached)
	}
}

func TestParallelBadRoot(t *testing.T) {
	if _, err := RunInProcess(graph.EdgeList{{U: 0, V: 1, W: 1}}, 2, 2, 9); err == nil {
		t.Error("bad root accepted")
	}
}

// TestParallelRejectsBadEdge: an id outside the vertex space is an error
// naming the edge, as a non-finite weight is, on one rank and on two (it used
// to index past the local arrays and take the process down).
func TestParallelRejectsBadEdge(t *testing.T) {
	for want, bad := range map[string]graph.Edge{
		"rank 0: bfs: edge (9,0) outside vertex space 3":    {U: 9, V: 0, W: 1},
		"rank 0: bfs: edge (1,2) has non-finite weight NaN": {U: 1, V: 2, W: math.NaN()},
	} {
		for _, ranks := range []int{1, 2} {
			_, err := RunInProcess(graph.EdgeList{bad, {U: 0, V: 1, W: 1}}, 3, ranks, 0)
			if err == nil || err.Error() != want {
				t.Errorf("ranks=%d: err = %v, want %q", ranks, err, want)
			}
		}
	}
}

func BenchmarkBFSTEPS(b *testing.B) {
	el, err := gen.RMAT(gen.DefaultRMAT(14, 5))
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 14
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunInProcess(el, n, 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.EdgesTraversed)/res.Duration.Seconds()/1e6, "MTEPS")
		}
	}
}
