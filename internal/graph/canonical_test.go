package graph

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refCanonicalize is the comparison-sort canonical form Build started from
// before its counting sort: every edge oriented U <= V, sorted by (U, V),
// made stable so that duplicates sum in input order — the one thing the
// first sort left unspecified and sortMerged guarantees.
func refCanonicalize(el EdgeList) EdgeList {
	out := make(EdgeList, 0, len(el))
	for _, e := range el {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].U == e.U && merged[n-1].V == e.V {
			merged[n-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// refBuild is Build as it stood before its counting sort, over refCanonicalize.
func refBuild(el EdgeList, n int) *Graph {
	if n <= 0 {
		n = el.NumVertices()
	}
	can := refCanonicalize(el)
	g := &Graph{N: n, Off: make([]int64, n+1), SelfW: make([]float64, n), Deg: make([]float64, n)}
	for _, e := range can {
		if e.U != e.V {
			g.Off[e.U+1]++
			g.Off[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		g.Off[i+1] += g.Off[i]
	}
	g.Nbr = make([]V, g.Off[n])
	g.NbrW = make([]float64, g.Off[n])
	fill := make([]int64, n)
	for _, e := range can {
		g.M += e.W
		if e.U == e.V {
			g.SelfW[e.U] += e.W
			g.Deg[e.U] += 2 * e.W
			continue
		}
		pu := g.Off[e.U] + fill[e.U]
		g.Nbr[pu], g.NbrW[pu] = e.V, e.W
		fill[e.U]++
		pv := g.Off[e.V] + fill[e.V]
		g.Nbr[pv], g.NbrW[pv] = e.U, e.W
		fill[e.V]++
		g.Deg[e.U] += e.W
		g.Deg[e.V] += e.W
	}
	return g
}

// randomList draws m edges on ids below idSpace with everything the sort
// has to cope with: both orientations, self-loops, repeats of earlier edges
// (so duplicates are far apart in the input), ids nobody touches, and
// weights across twelve orders of magnitude so that a sum depends on its
// order.
func randomList(rng *rand.Rand, m int, idSpace uint64) EdgeList {
	el := make(EdgeList, 0, m)
	for len(el) < m {
		e := Edge{V(rng.Uint64() % idSpace), V(rng.Uint64() % idSpace), math.Ldexp(rng.Float64()+0.5, rng.Intn(40)-20)}
		switch r := rng.Intn(10); {
		case r == 0:
			e.V = e.U
		case r <= 3 && len(el) > 0:
			old := el[rng.Intn(len(el))]
			e.U, e.V = old.V, old.U
		}
		el = append(el, e)
	}
	return el
}

func TestBuildMatchesComparisonSortBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lists := []EdgeList{
		nil,
		{},
		{{3, 1, 2.5}},
		{{4, 4, 1}},
		{{2, 5, 1}, {5, 2, 1e-9}, {2, 5, 1e9}}, // all keys equal: no scatter runs
	}
	// Id spaces on both sides of every byte boundary of the key.
	for _, idSpace := range []uint64{1, 2, 7, 255, 256, 257, 4000, 65535, 65536, 70000, 1 << 20} {
		for _, m := range []int{1, 2, 50, 3000} {
			lists = append(lists, randomList(rng, m, idSpace))
		}
	}
	for i, el := range lists {
		in := append(EdgeList(nil), el...)
		for _, n := range []int{0, el.NumVertices() + 3} { // inferred, and with isolated ids on top
			g, ref := Build(el, n), refBuild(el, n)
			if !reflect.DeepEqual(g, ref) {
				t.Fatalf("list %d, n=%d: Build differs from the comparison-sort build", i, n)
			}
		}
		for j := range in {
			if el[j] != in[j] {
				t.Fatalf("list %d: Build changed its input at %d", i, j)
			}
		}
		oriented := make(EdgeList, len(el))
		for j, e := range el {
			oriented[j] = Edge{min(e.U, e.V), max(e.U, e.V), e.W}
		}
		if got, want := sortMerged(oriented, el.NumVertices()), refCanonicalize(el); !reflect.DeepEqual(got, want) {
			t.Fatalf("list %d (%d edges): sortMerged differs from the comparison sort", i, len(el))
		}
	}
}

// TestCanonicalizeScratchIsPerEdge bounds what Build allocates by c·edges +
// c′·n bytes, results included: two lists of 16 B per record (the oriented
// copy and the sort's scratch), 12 B per CSR entry (two per record at most)
// and five n-sized arrays of 8 B (the sort's counters, Off, SelfW, Deg and
// fill). A third per-record list would cost 16 B per record more and fail it.
func TestCanonicalizeScratchIsPerEdge(t *testing.T) {
	const n, m = 1000, 20000
	el := randomList(rand.New(rand.NewSource(5)), m, n)
	g := Build(el, n)
	if ref := refBuild(el, n); !reflect.DeepEqual(g, ref) {
		t.Fatal("Build differs from the comparison-sort build")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Build(el, n)
	runtime.ReadMemStats(&after)
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(56*m+48*n+4096); grew > bound {
		t.Errorf("Build of %d edges on %d vertices allocated %d bytes, bound %d", m, n, grew, bound)
	}
}
