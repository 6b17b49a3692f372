package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// The gain scan as it was before it became linear, kept as the oracle the new
// one is held to: it finds a first sighting by scanning its touched list.

type refScan struct {
	w2c     []float64
	touched []graph.V
}

func (s *refScan) best(wg *graph.Graph, comm []graph.V, tot []float64, u graph.V, totC0 float64) (bestC graph.V, gain, wStay, wBest, rival float64) {
	w2c, touched := s.w2c, s.touched[:0]
	c0, ku := comm[u], wg.Deg[u]
	touched = append(touched, c0)
	for i := wg.Off[u]; i < wg.Off[u+1]; i++ {
		c := comm[wg.Nbr[i]]
		// A zero weight may be a community not yet seen or one whose
		// weights cancelled; only the touched list can tell.
		if w2c[c] == 0 && c != c0 {
			found := false
			for _, t := range touched {
				if t == c {
					found = true
					break
				}
			}
			if !found {
				touched = append(touched, c)
			}
		}
		w2c[c] += wg.NbrW[i]
	}

	stay := metrics.DeltaQ(w2c[c0], totC0, ku, wg.M)
	// rival is the largest gain of another community, +0 above −0.
	bestC, bestGain, other := c0, stay, math.Inf(-1)
	for _, c := range touched[1:] {
		g := metrics.DeltaQ(w2c[c], tot[c], ku, wg.M)
		if g > other || (g == 0 && other == 0 && !math.Signbit(g)) {
			other = g
		}
		if g > bestGain || (g == bestGain && c < bestC) {
			bestC, bestGain = c, g
		}
	}
	wStay, wBest = w2c[c0], w2c[bestC]
	for _, c := range touched {
		w2c[c] = 0
	}
	s.touched = touched
	return bestC, bestGain - stay, wStay, wBest, other - stay
}

// checkBest holds gainScan.best to the scanning oracle on every vertex of wg
// under the partition comm (labels < wg.N): the same five results to the bit,
// and an accumulator left all zero. It returns how many rows listed a
// community twice — the case the oracle's scan existed to prevent and the new
// fold has to tolerate.
func checkBest(t testing.TB, wg *graph.Graph, comm []graph.V) (relisted int) {
	t.Helper()
	tot := make([]float64, wg.N)
	for u, c := range comm {
		tot[c] += wg.Deg[u]
	}
	scan := newGainScan(wg.N)
	scan.rivals = true
	ref := &refScan{w2c: make([]float64, wg.N)}
	bits := math.Float64bits
	for u := 0; u < wg.N; u++ {
		totC0 := tot[comm[u]] - wg.Deg[u]
		c, gain, wStay, wBest, rival := scan.best(wg, comm, tot, graph.V(u), totC0)
		rc, rGain, rStay, rBest, rRival := ref.best(wg, comm, tot, graph.V(u), totC0)
		if c != rc || bits(gain) != bits(rGain) || bits(wStay) != bits(rStay) || bits(wBest) != bits(rBest) || bits(rival) != bits(rRival) {
			t.Fatalf("vertex %d of community %d: best = (%d, %v, %v, %v, %v), the scanning oracle says (%d, %v, %v, %v, %v)",
				u, comm[u], c, gain, wStay, wBest, rival, rc, rGain, rStay, rBest, rRival)
		}
		if c != comm[u] && gain != rival { // equal values; a zero may differ in sign
			t.Fatalf("vertex %d moves to %d with gain %v but its rival is %v", u, c, gain, rival)
		}
		seen := map[graph.V]bool{}
		for _, c := range scan.touched {
			if seen[c] {
				relisted++
				break
			}
			seen[c] = true
		}
		if wg.N <= 256 || u == wg.N-1 {
			for c, w := range scan.w2c {
				if w != 0 {
					t.Fatalf("after vertex %d: w2c[%d] = %v, want an all-zero accumulator", u, c, w)
				}
			}
		}
	}
	return relisted
}

// TestOrderBits: the keys of ascending floats ascend as int64, and the
// mapping undoes itself.
func TestOrderBits(t *testing.T) {
	asc := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1e-12, 1, math.MaxFloat64, math.Inf(1)}
	for i, f := range asc {
		k := orderBits(math.Float64bits(f))
		if back := math.Float64frombits(orderBits(k)); math.Float64bits(back) != math.Float64bits(f) {
			t.Errorf("%v comes back as %v", f, back)
		}
		if i > 0 && int64(k) <= int64(orderBits(math.Float64bits(asc[i-1]))) {
			t.Errorf("key of %v is not above the key of %v", f, asc[i-1])
		}
	}
}

// randomPartition labels n vertices with k random labels below n.
func randomPartition(rng *rand.Rand, n, k int) []graph.V {
	names := rng.Perm(n)[:k]
	comm := make([]graph.V, n)
	for u := range comm {
		comm[u] = graph.V(names[rng.Intn(k)])
	}
	return comm
}

// randomWeighted is a random multigraph on n vertices (some left isolated)
// with self-loops and weights drawn by weight.
func randomWeighted(rng *rand.Rand, n, m int, weight func() float64) *graph.Graph {
	el := make(graph.EdgeList, 0, m)
	live := 1 + rng.Intn(n) // vertices live..n-1 stay isolated
	for i := 0; i < m; i++ {
		el = append(el, graph.Edge{U: graph.V(rng.Intn(live)), V: graph.V(rng.Intn(live)), W: weight()})
	}
	return graph.Build(el, n)
}

func TestBestMatchesScanningBest(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	weights := []struct {
		name string
		draw func() float64
	}{
		{"unit", func() float64 { return 1 }},
		{"integer", func() float64 { return float64(1 + rng.Intn(8)) }},
		{"fractional", func() float64 { return rng.Float64() * 3 }},
		// Mostly positive (m stays positive), with enough -1/+1 pairs and
		// zeros that row sums pass through zero.
		{"signed", func() float64 { return float64(rng.Intn(4) - 1) }},
	}
	relisted := 0
	for _, w := range weights {
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.Intn(60)
			wg := randomWeighted(rng, n, rng.Intn(4*n), w.draw)
			if wg.M == 0 {
				continue
			}
			for _, k := range []int{1, 1 + rng.Intn(n), n} {
				r := checkBest(t, wg, randomPartition(rng, n, k))
				if w.name == "signed" {
					relisted += r
				}
			}
		}
	}
	if relisted == 0 {
		t.Error("no signed-weight row listed a community twice: the duplicate-listing case was not reached")
	}

	t.Run("cancels mid-row", func(t *testing.T) {
		// Vertex 0's row into community 1 reads +1, -1, +2: the sum is zero
		// after the second entry and the third lists the community again.
		// Vertex 4 sits alone in community 4 with no weight into it.
		wg := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: -1}, {U: 0, V: 3, W: 2}, {U: 0, V: 4, W: 1}, {U: 1, V: 2, W: 3}}, 0)
		if r := checkBest(t, wg, []graph.V{0, 1, 1, 1, 4}); r == 0 {
			t.Error("community 1 was not listed twice in vertex 0's row")
		}
		// The same row with vertex 0 inside the cancelling community: c0's own
		// weight passes through zero.
		checkBest(t, wg, []graph.V{1, 1, 1, 1, 4})
	})

	t.Run("star hub", func(t *testing.T) {
		const d = 10000
		wg := starGraph(d)
		singletons := make([]graph.V, d+1)
		for u := range singletons {
			singletons[u] = graph.V(u)
		}
		checkBest(t, wg, singletons)
		// Leaves in a few communities, the hub in one of them.
		checkBest(t, wg, randomPartition(rand.New(rand.NewSource(3)), d+1, 7))
	})
}

// starGraph is vertex 0 joined to leaves 1..d by unit edges.
func starGraph(d int) *graph.Graph {
	el := make(graph.EdgeList, d)
	for i := range el {
		el[i] = graph.Edge{U: 0, V: graph.V(i + 1), W: 1}
	}
	return graph.Build(el, d+1)
}

// FuzzGainScan reads the payload as (u, v, w, label) records over at most 32
// vertices — weights in quarters from -1 to 2.75, so sums cancel exactly and
// zero-weight entries occur — and holds best to the scanning oracle under the
// partition the label bytes spell.
func FuzzGainScan(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0, 0, 2, 0, 1, 0, 3, 12, 1})
	f.Add([]byte{0, 1, 8, 1, 0, 2, 0, 1, 0, 3, 12, 1, 0, 4, 8, 4, 1, 2, 15, 1})
	f.Add([]byte{5, 5, 9, 2, 5, 6, 4, 2, 6, 7, 4, 0, 7, 5, 4, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxN = 32
		var el graph.EdgeList
		comm := make([]graph.V, maxN)
		for i := 0; i+3 < len(data) && len(el) < 512; i += 4 {
			u, v := graph.V(data[i]%maxN), graph.V(data[i+1]%maxN)
			el = append(el, graph.Edge{U: u, V: v, W: float64(data[i+2]%16)/4 - 1})
			comm[u] = graph.V(data[i+3] % maxN)
		}
		wg := graph.Build(el, maxN)
		if wg.M == 0 {
			return // Equation 4 divides by m
		}
		checkBest(t, wg, comm)
	})
}

// levelLoopInputs are the two graphs the repo's benchmark solves whole-graph
// (R-MAT scale 14, LFR n=40 000; `-short` shrinks both), each with the
// partition seq-louvain's first level ends in.
func levelLoopInputs(b *testing.B) map[string]*graph.Graph {
	b.Helper()
	scale, n := 14, 40000
	if testing.Short() {
		scale, n = 10, 2000
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(scale, 11))
	if err != nil {
		b.Fatal(err)
	}
	// The benchmark's LFR family (bench/graphload.go): bounded degrees and
	// community sizes, so the solve has three levels and not two.
	lfrCfg := gen.LFRConfig{N: n, AvgDegree: 16, MaxDegree: 100, Gamma: 2.5, Beta: 1.5, Mu: 0.3, MinCommunity: 32, MaxCommunity: 1000, Seed: 11}
	if testing.Short() {
		lfrCfg.MaxDegree, lfrCfg.MinCommunity, lfrCfg.MaxCommunity = 50, 16, n/8
	}
	lfr, _, err := gen.LFR(lfrCfg)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": graph.Build(rmat, 0), "lfr": graph.Build(lfr, 0)}
}

var benchSink float64

// BenchmarkGainScanHub is one best call on the hub of a star whose d leaves
// sit in d singleton communities: every entry is a first sighting. ns/edge is
// flat in d; the scanning oracle, run next to it, grows linearly (d/2
// comparisons per entry).
func BenchmarkGainScanHub(b *testing.B) {
	type bestFn func(*graph.Graph, []graph.V, []float64, graph.V, float64) (graph.V, float64, float64, float64, float64)
	for _, d := range []int{100, 1000, 10000} {
		wg := starGraph(d)
		comm, tot := make([]graph.V, d+1), make([]float64, d+1)
		for u := range comm {
			comm[u] = graph.V(u)
			tot[u] = wg.Deg[u]
		}
		for _, k := range []struct {
			name string
			best bestFn
		}{
			{"", newGainScan(d + 1).best},
			{"/scanning-oracle", (&refScan{w2c: make([]float64, d+1)}).best},
		} {
			b.Run(fmt.Sprintf("d=%d%s", d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, gain, _, _, _ := k.best(wg, comm, tot, 0, 0)
					benchSink += gain
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/edge")
			})
		}
	}
}

// BenchmarkCondense aggregates the level-0 partition of seq-louvain. A
// map-free condense has to beat this on both inputs to be worth its code
// (EXPERIMENTS.md "Level loop": the counting-sort one did not).
func BenchmarkCondense(b *testing.B) {
	for name, g := range levelLoopInputs(b) {
		labels, k := compactLabels(must(b)(Sequential(g, Options{MaxLevels: 1})).Membership)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Condense(g, labels, k).M
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Nbr)/2), "ns/edge")
		})
	}
}
