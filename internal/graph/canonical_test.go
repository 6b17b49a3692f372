package graph

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refCanonicalize is the comparison-sort Canonicalize the radix sort
// replaced, made stable so that duplicates sum in input order — the one
// thing the old code left unspecified and the new one guarantees.
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

// refBuild is Build as it stood before the radix sort, over refCanonicalize.
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
		got, want := el.Canonicalize(), refCanonicalize(el)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list %d (%d edges): Canonicalize differs from the comparison sort", i, len(el))
		}
		for j := range in {
			if el[j] != in[j] {
				t.Fatalf("list %d: Canonicalize changed its receiver at %d", i, j)
			}
		}
		for _, n := range []int{0, el.NumVertices() + 3} { // inferred, and with isolated ids on top
			g, ref := Build(el, n), refBuild(el, n)
			if !reflect.DeepEqual(g, ref) {
				t.Fatalf("list %d, n=%d: Build differs from the comparison-sort build", i, n)
			}
		}
	}
}

// TestCanonicalizeScratchIsPerEdge holds Canonicalize to scratch that
// depends on the number of edges and not on the ids: a handful of edges
// next to 2^32-1 must sort within a few kilobytes.
func TestCanonicalizeScratchIsPerEdge(t *testing.T) {
	const top = math.MaxUint32
	el := EdgeList{
		{top, top - 1, 1}, {0, top, 2}, {top - 1, top, 0.5}, {top, top, 3},
		{1 << 31, 1 << 16, 1}, {top - 255, 255, 1}, {0, top, 4}, {0, 1, 1},
	}
	if got, want := el.Canonicalize(), refCanonicalize(el); !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonicalize = %v, want %v", got, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	el.Canonicalize()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
		t.Errorf("Canonicalize of %d edges allocated %d bytes", len(el), grew)
	}
}
