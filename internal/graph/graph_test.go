package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func triangle() EdgeList {
	return EdgeList{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}
}

func TestBuildTriangle(t *testing.T) {
	g := Build(triangle(), 0)
	if g.N != 3 {
		t.Fatalf("N = %d, want 3", g.N)
	}
	if g.M != 3 {
		t.Errorf("M = %v, want 3", g.M)
	}
	for u := V(0); u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, g.Degree(u))
		}
		if g.Deg[u] != 2 {
			t.Errorf("Deg[%d] = %v, want 2", u, g.Deg[u])
		}
	}
}

func TestBuildSelfLoop(t *testing.T) {
	g := Build(EdgeList{{0, 0, 2.5}, {0, 1, 1}}, 0)
	if g.SelfW[0] != 2.5 {
		t.Errorf("SelfW[0] = %v, want 2.5", g.SelfW[0])
	}
	// Self-loop counts twice in weighted degree.
	if g.Deg[0] != 6 {
		t.Errorf("Deg[0] = %v, want 6", g.Deg[0])
	}
	if g.M != 3.5 {
		t.Errorf("M = %v, want 3.5", g.M)
	}
	if g.Degree(0) != 1 {
		t.Errorf("Degree(0) = %d (self-loops excluded from CSR), want 1", g.Degree(0))
	}
}

func TestBuildMergesDuplicates(t *testing.T) {
	g := Build(EdgeList{{0, 1, 1}, {1, 0, 2}, {0, 1, 0.5}}, 0)
	if g.M != 3.5 {
		t.Errorf("M = %v, want 3.5", g.M)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("duplicates not merged: deg0=%d deg1=%d", g.Degree(0), g.Degree(1))
	}
	var w float64
	g.Neighbors(0, func(v V, ew float64) bool { w = ew; return true })
	if w != 3.5 {
		t.Errorf("merged weight = %v, want 3.5", w)
	}
}

func TestDegreeSumIsTwoM(t *testing.T) {
	f := func(raw []struct {
		U, V uint16
		W    uint8
	}) bool {
		el := make(EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, Edge{V(r.U), V(r.V), float64(r.W%7) + 0.5})
		}
		g := Build(el, 0)
		sum := 0.0
		for _, d := range g.Deg {
			sum += d
		}
		return math.Abs(sum-2*g.M) < 1e-6*(1+math.Abs(g.M))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	el := EdgeList{{0, 0, 2}, {0, 1, 1}, {1, 2, 3}, {2, 0, 1}, {3, 3, 1}}
	g := Build(el, 0)
	back := Build(g.EdgeList(), g.N)
	if back.M != g.M || back.N != g.N {
		t.Fatalf("round trip changed M/N: %v/%d vs %v/%d", back.M, back.N, g.M, g.N)
	}
	a, b := g.EdgeList(), back.EdgeList()
	if len(a) != len(b) {
		t.Fatalf("edge count changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("edge %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCanonicalize(t *testing.T) {
	g := Build(EdgeList{{5, 1, 1}, {1, 5, 2}, {3, 3, 1}}, 0)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, r := range [][2]V{{1, 5}, {5, 1}} {
		u, v := r[0], r[1]
		if g.Degree(u) != 1 || g.Nbr[g.Off[u]] != v || g.NbrW[g.Off[u]] != 3 {
			t.Errorf("row %d = %v %v, want [%d] [3]", u, g.Nbr[g.Off[u]:g.Off[u+1]], g.NbrW[g.Off[u]:g.Off[u+1]], v)
		}
	}
	if g.SelfW[3] != 1 || g.Degree(3) != 0 {
		t.Errorf("SelfW[3] = %v with %d neighbours, want 1 with none", g.SelfW[3], g.Degree(3))
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build(nil, 0)
	if g.N != 0 || g.M != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: N=%d M=%v E=%d", g.N, g.M, g.NumEdges())
	}
	var el EdgeList
	if el.NumVertices() != 0 || el.TotalWeight() != 0 {
		t.Error("empty edge list accessors")
	}
}

func TestIsolatedVertices(t *testing.T) {
	// n larger than any referenced id: trailing isolated vertices.
	g := Build(EdgeList{{0, 1, 1}}, 5)
	if g.N != 5 {
		t.Fatalf("N = %d, want 5", g.N)
	}
	for u := V(2); u < 5; u++ {
		if g.Degree(u) != 0 || g.Deg[u] != 0 {
			t.Errorf("vertex %d should be isolated", u)
		}
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := Build(EdgeList{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}}, 0)
	count := 0
	g.Neighbors(0, func(V, float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d, want 2", count)
	}
}

func TestNumEdgesCountsSelfLoops(t *testing.T) {
	g := Build(EdgeList{{0, 1, 1}, {1, 1, 1}, {2, 2, 1}}, 0)
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
}

// TestEdgeCheck pins the one test the engines apply to an edge they are
// handed: both endpoints inside [0, n), weight finite, id range reported first.
func TestEdgeCheck(t *testing.T) {
	for _, tc := range []struct {
		e    Edge
		n    int
		want string
	}{
		{Edge{0, 3, 1.5}, 4, ""},
		{Edge{3, 3, 0}, 4, ""},
		{Edge{2, 1, -0.25}, 3, ""},
		{Edge{0, 4, 1}, 4, "edge (0,4) outside vertex space 4"},
		{Edge{4, 0, 1}, 4, "edge (4,0) outside vertex space 4"},
		{Edge{0, 0, 1}, 0, "edge (0,0) outside vertex space 0"},
		{Edge{7, 1, math.NaN()}, 4, "edge (7,1) outside vertex space 4"},
		{Edge{1, 2, math.NaN()}, 4, "edge (1,2) has non-finite weight NaN"},
		{Edge{2, 1, math.Inf(1)}, 4, "edge (2,1) has non-finite weight +Inf"},
		{Edge{1, 2, math.Inf(-1)}, math.MaxInt, "edge (1,2) has non-finite weight -Inf"},
	} {
		got := ""
		if err := tc.e.Check(tc.n); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%+v.Check(%d) = %q, want %q", tc.e, tc.n, got, tc.want)
		}
	}
}
