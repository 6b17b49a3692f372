package sssp

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

func TestSequentialWeightedPath(t *testing.T) {
	// 0 -2- 1 -3- 2 and a shortcut 0 -10- 2.
	g := graph.Build(graph.EdgeList{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 10},
	}, 4)
	dist, err := Sequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 5, Inf}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
}

func TestSequentialValidation(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: -1}}, 0)
	if _, err := Sequential(g, 0); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Sequential(g, 99); err == nil {
		t.Error("bad root accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 19))
	if err != nil {
		t.Fatal(err)
	}
	// Give edges varied weights deterministically.
	for i := range el {
		el[i].W = 1 + float64(i%7)/3
	}
	g := graph.Build(el, 600)
	want, err := Sequential(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3, 5} {
		res, err := RunInProcess(el, 600, ranks, 5)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for v := range want {
			if math.Abs(res.Dist[v]-want[v]) > 1e-9 &&
				!(math.IsInf(res.Dist[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("ranks=%d: dist[%d] = %v, want %v", ranks, v, res.Dist[v], want[v])
			}
		}
		if res.Rounds <= 0 || res.Relaxations <= 0 {
			t.Errorf("counters: rounds=%d relax=%d", res.Rounds, res.Relaxations)
		}
	}
}

func TestParallelMatchesSequentialQuick(t *testing.T) {
	f := func(raw []struct{ U, V, W uint8 }, rootRaw uint8) bool {
		const n = 48
		el := make(graph.EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, graph.Edge{U: graph.V(r.U % n), V: graph.V(r.V % n), W: float64(r.W%9) + 0.5})
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
			a, b := res.Dist[v], want[v]
			if math.IsInf(a, 1) && math.IsInf(b, 1) {
				continue
			}
			if math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParallelUnreachable(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}}
	res, err := RunInProcess(el, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Dist[2], 1) || !math.IsInf(res.Dist[3], 1) {
		t.Errorf("unreachable distances: %v", res.Dist)
	}
}

func TestParallelValidation(t *testing.T) {
	if _, err := RunInProcess(graph.EdgeList{{U: 0, V: 1, W: -2}}, 2, 2, 0); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := RunInProcess(graph.EdgeList{{U: 0, V: 1, W: 1}}, 2, 2, 7); err == nil {
		t.Error("bad root accepted")
	}
}

// TestParallelRejectsBadEdge: an id outside the vertex space is an error
// naming the edge, as a non-finite weight is, on one rank and on two (it used
// to index past the local arrays and take the process down). A negative
// weight is refused per record, before a pair's records are summed.
func TestParallelRejectsBadEdge(t *testing.T) {
	for want, bad := range map[string]graph.EdgeList{
		"rank 0: sssp: edge (9,0) outside vertex space 3":    {{U: 9, V: 0, W: 1}},
		"rank 0: sssp: edge (1,2) has non-finite weight NaN": {{U: 1, V: 2, W: math.NaN()}},
		"rank 0: sssp: negative edge weight -1":              {{U: 1, V: 2, W: -1}, {U: 1, V: 2, W: 2}},
	} {
		for _, ranks := range []int{1, 2} {
			_, err := RunInProcess(append(bad, graph.Edge{U: 0, V: 1, W: 1}), 3, ranks, 0)
			if err == nil || err.Error() != want {
				t.Errorf("ranks=%d: err = %v, want %q", ranks, err, want)
			}
		}
	}
}

// TestParallelLeavesLocalUntouched: Parallel reads its local edges and never
// writes them, duplicates and fractional weights included, and the distances
// are the same bits at every group size.
func TestParallelLeavesLocalUntouched(t *testing.T) {
	el := graph.EdgeList{
		{U: 3, V: 1, W: 0.7}, {U: 0, V: 1, W: 0.1}, {U: 1, V: 3, W: 0.2}, {U: 2, V: 0, W: 1.3},
		{U: 1, V: 0, W: 0.2}, {U: 3, V: 1, W: 0.1}, {U: 2, V: 3, W: 0.3}, {U: 0, V: 1, W: 0.4},
	}
	var want []float64
	for _, ranks := range []int{1, 2, 3} {
		parts := graph.SplitEdges(el, ranks)
		before := make([]graph.EdgeList, ranks)
		for r := range parts {
			before[r] = append(graph.EdgeList(nil), parts[r]...)
		}
		var res *Result
		trs := comm.NewMemGroup(ranks)
		err := comm.RunGroup(context.Background(), trs, func(r int, c *comm.Comm) error {
			got, err := Parallel(c, parts[r], 4, 0)
			if r == 0 {
				res = got
			}
			return err
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for r := range parts {
			if !reflect.DeepEqual(parts[r], before[r]) {
				t.Errorf("ranks=%d: rank %d's local changed: %v, was %v", ranks, r, parts[r], before[r])
			}
		}
		if want == nil {
			want = res.Dist
		}
		for v := range want {
			if math.Float64bits(res.Dist[v]) != math.Float64bits(want[v]) {
				t.Errorf("ranks=%d: dist[%d] = %v, want %v at one rank", ranks, v, res.Dist[v], want[v])
			}
		}
	}
}
