package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestModularityTwoCliques(t *testing.T) {
	// Two triangles joined by one edge. With each triangle a community:
	// m=7, Σin double-counted per community = 6, Σtot = 7 each.
	// Q = 2*(6/14 - (7/14)^2) = 6/7 - 1/2 = 0.357142...
	el := graph.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		{U: 2, V: 3, W: 1},
	}
	g := graph.Build(el, 0)
	assign := []graph.V{0, 0, 0, 1, 1, 1}
	approx(t, "Q", Modularity(g, assign), 6.0/7-0.5, 1e-12)
}

func TestModularitySingleCommunityIsZero(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}, 0)
	// All in one community: Q = Σin/2m - (Σtot/2m)^2 = 1 - 1 = 0.
	approx(t, "Q", Modularity(g, []graph.V{0, 0, 0}), 0, 1e-12)
}

func TestModularityAllSingletonsNegative(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}}, 0)
	q := Modularity(g, []graph.V{0, 1, 2})
	if q >= 0 {
		t.Errorf("singleton Q = %v, want < 0", q)
	}
}

func TestModularityBounds(t *testing.T) {
	// Property: Q ∈ [-0.5, 1] for any assignment on any graph.
	f := func(raw []struct{ U, V uint8 }, labels []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		el := make(graph.EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, graph.Edge{U: graph.V(r.U % 32), V: graph.V(r.V % 32), W: 1})
		}
		g := graph.Build(el, 32)
		assign := make([]graph.V, 32)
		for i := range assign {
			if len(labels) > 0 {
				assign[i] = graph.V(labels[i%len(labels)] % 8)
			}
		}
		q := Modularity(g, assign)
		return q >= -0.5-1e-9 && q <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModularitySelfLoopHandling(t *testing.T) {
	// A graph that is one self-loop: the single community holds all
	// weight, Q = 2w/2m - (2w/2m)^2 = 1 - 1 = 0.
	g := graph.Build(graph.EdgeList{{U: 0, V: 0, W: 5}}, 0)
	approx(t, "Q", Modularity(g, []graph.V{0}), 0, 1e-12)
}

func TestDeltaQMatchesBruteForce(t *testing.T) {
	// Property: Eq. 4's gain equals the modularity difference computed
	// from scratch, for moving an isolated vertex into a community.
	el, truth, err := gen.SBM(gen.SBMConfig{N: 60, Communities: 3, PIn: 0.4, POut: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 60)
	// Start from truth, but isolate vertex 0 in its own fresh community.
	assign := append([]graph.V(nil), truth...)
	const fresh = 1000
	assign[0] = fresh
	qBase := Modularity(g, assign)

	// Candidate: move 0 into community c.
	for c := graph.V(0); c < 3; c++ {
		wUToC := 0.0
		g.Neighbors(0, func(v graph.V, w float64) bool {
			if assign[v] == c {
				wUToC += w
			}
			return true
		})
		sumTot := 0.0
		for u := 0; u < g.N; u++ {
			if assign[u] == c {
				sumTot += g.Deg[u]
			}
		}
		gain := DeltaQ(wUToC, sumTot, g.Deg[0], g.M)

		moved := append([]graph.V(nil), assign...)
		moved[0] = c
		// Eq. 4's second bracket subtracts the isolated community's own
		// -(k_u/2m)^2 penalty, so the gain equals the from-scratch
		// modularity difference exactly.
		brute := Modularity(g, moved) - qBase
		approx(t, "deltaQ", gain, brute, 1e-9)
	}
}

func TestCommunitySizes(t *testing.T) {
	assign := []graph.V{1, 1, 2, 2, 2, 9}
	sizes := CommunitySizes(assign)
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("sizes = %v, want [3 2 1]", sizes)
	}
}

func TestSizeHistogram(t *testing.T) {
	h := SizeHistogram([]int{1, 1, 2, 3, 4, 8, 1000}, 8)
	if h[0] != 2 { // size 1
		t.Errorf("bin0 = %d, want 2", h[0])
	}
	if h[1] != 2 { // sizes 2,3
		t.Errorf("bin1 = %d, want 2", h[1])
	}
	if h[2] != 1 { // size 4..7
		t.Errorf("bin2 = %d, want 1", h[2])
	}
	if h[7] != 1 { // 1000 clamps to last bin
		t.Errorf("bin7 = %d, want 1", h[7])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 7 {
		t.Errorf("histogram total %d, want 7", total)
	}
	if got := SizeHistogram(nil, 0); len(got) != 16 {
		t.Errorf("default bins = %d, want 16", len(got))
	}
}

func TestGCCCompleteGraphIsOne(t *testing.T) {
	var el graph.EdgeList
	const n = 12
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			el = append(el, graph.Edge{U: graph.V(u), V: graph.V(v), W: 1})
		}
	}
	g := graph.Build(el, n)
	approx(t, "gcc", GCC(g, 20000, 1), 1, 1e-9)
}

func TestGCCStarIsZero(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1}, {U: 0, V: 4, W: 1}}
	g := graph.Build(el, 0)
	approx(t, "gcc", GCC(g, 5000, 1), 0, 1e-9)
}

func TestGCCNoWedges(t *testing.T) {
	g := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}}, 0)
	approx(t, "gcc", GCC(g, 100, 1), 0, 0)
}

func identicalPartitions(n int) ([]graph.V, []graph.V) {
	a := make([]graph.V, n)
	for i := range a {
		a[i] = graph.V(i % 5)
	}
	b := append([]graph.V(nil), a...)
	// Different labels, same structure.
	for i := range b {
		b[i] += 100
	}
	return a, b
}

func TestSimilarityIdentityProperties(t *testing.T) {
	a, b := identicalPartitions(100)
	s, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "NMI", s.NMI, 1, 1e-12)
	approx(t, "F", s.FMeasure, 1, 1e-12)
	approx(t, "NVD", s.NVD, 0, 1e-12)
	approx(t, "RI", s.Rand, 1, 1e-12)
	approx(t, "ARI", s.ARI, 1, 1e-12)
	approx(t, "JI", s.Jaccard, 1, 1e-12)
}

func TestSimilarityIdentityQuick(t *testing.T) {
	f := func(labels []uint8) bool {
		if len(labels) == 0 {
			return true
		}
		a := make([]graph.V, len(labels))
		for i, l := range labels {
			a[i] = graph.V(l % 6)
		}
		s, err := Compare(a, a)
		if err != nil {
			return false
		}
		return math.Abs(s.NMI-1) < 1e-9 && math.Abs(s.FMeasure-1) < 1e-9 &&
			s.NVD < 1e-9 && math.Abs(s.Rand-1) < 1e-9 &&
			math.Abs(s.ARI-1) < 1e-9 && math.Abs(s.Jaccard-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	f := func(la, lb []uint8) bool {
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		if n == 0 {
			return true
		}
		a := make([]graph.V, n)
		b := make([]graph.V, n)
		for i := 0; i < n; i++ {
			a[i] = graph.V(la[i] % 4)
			b[i] = graph.V(lb[i] % 4)
		}
		s1, err1 := Compare(a, b)
		s2, err2 := Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		eq := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
		return eq(s1.NMI, s2.NMI) && eq(s1.FMeasure, s2.FMeasure) &&
			eq(s1.NVD, s2.NVD) && eq(s1.Rand, s2.Rand) &&
			eq(s1.ARI, s2.ARI) && eq(s1.Jaccard, s2.Jaccard)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityKnownSmallCase(t *testing.T) {
	// A = {0,1|2,3}, B = {0,1,2|3}: hand-computable.
	a := []graph.V{0, 0, 1, 1}
	b := []graph.V{0, 0, 0, 1}
	c, err := NewContingency(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: T=6. Together in both: {01}=1 -> S11=1. SA = 2 (01,23),
	// SB = C(3,2)=3.
	// RI = (1 + (6-2-3+1))/6 = 3/6 = 0.5.
	approx(t, "RI", c.Rand(), 0.5, 1e-12)
	// JI = 1/(2+3-1) = 0.25.
	approx(t, "JI", c.Jaccard(), 0.25, 1e-12)
	// ARI = (1 - 2*3/6)/((2+3)/2 - 2*3/6) = 0/1.5 = 0.
	approx(t, "ARI", c.AdjustedRand(), 0, 1e-12)
	// Van Dongen: row maxima 2+1, col maxima 2+1 -> 1 - 6/8 = 0.25.
	approx(t, "NVD", c.VanDongen(), 0.25, 1e-12)
}

func TestNMIIndependentPartitionsNearZero(t *testing.T) {
	// a alternates 0101..., b is blocks of two: roughly independent.
	const n = 4096
	a := make([]graph.V, n)
	b := make([]graph.V, n)
	for i := 0; i < n; i++ {
		a[i] = graph.V(i % 2)
		b[i] = graph.V((i / 2) % 2)
	}
	c, _ := NewContingency(a, b)
	if nmi := c.NMI(); nmi > 0.01 {
		t.Errorf("NMI of independent partitions = %v, want ~0", nmi)
	}
	if ari := c.AdjustedRand(); math.Abs(ari) > 0.02 {
		t.Errorf("ARI of independent partitions = %v, want ~0", ari)
	}
}

func TestCompareLengthMismatch(t *testing.T) {
	if _, err := Compare([]graph.V{0}, []graph.V{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestTrivialPartitionEdgeCases(t *testing.T) {
	// Both all-one-cluster.
	one := []graph.V{0, 0, 0}
	s, err := Compare(one, one)
	if err != nil {
		t.Fatal(err)
	}
	if s.NMI != 1 || s.ARI != 1 || s.Rand != 1 {
		t.Errorf("trivial identical: %+v", s)
	}
	// Both all-singletons.
	sing := []graph.V{0, 1, 2}
	s, err = Compare(sing, sing)
	if err != nil {
		t.Fatal(err)
	}
	if s.NMI != 1 || s.ARI != 1 || s.Jaccard != 1 {
		t.Errorf("singletons identical: %+v", s)
	}
	// Empty.
	s, err = Compare(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.NVD != 0 {
		t.Errorf("empty NVD = %v", s.NVD)
	}
}

// refModularity is Modularity as it was while it kept Σin and Σtot in maps
// keyed by label: the oracle for the slice-indexed version.
func refModularity(g *graph.Graph, assign []graph.V) float64 {
	if g.N == 0 || g.M == 0 {
		return 0
	}
	in := map[graph.V]float64{}
	tot := map[graph.V]float64{}
	for u := 0; u < g.N; u++ {
		cu := assign[u]
		tot[cu] += g.Deg[u]
		in[cu] += 2 * g.SelfW[u]
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			if assign[g.Nbr[i]] == cu {
				in[cu] += g.NbrW[i]
			}
		}
	}
	comms := make([]graph.V, 0, len(tot))
	for c := range tot {
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	twoM := 2 * g.M
	q := 0.0
	for _, c := range comms {
		t := tot[c]
		q += in[c]/twoM - (t/twoM)*(t/twoM)
	}
	return q
}

// TestModularityMatchesMapModularity holds Modularity to the map version bit
// for bit: labels below N (the identity index, with and without gaps), labels
// at and above N (the rank index), fractional and negative weights,
// self-loops and isolated vertices.
func TestModularityMatchesMapModularity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		live := 1 + rng.Intn(n)
		var el graph.EdgeList
		for i := rng.Intn(5 * n); i > 0; i-- {
			w := float64(1 + rng.Intn(4))
			switch trial % 3 {
			case 1:
				w = rng.Float64() * 5
			case 2:
				w = rng.Float64()*4 - 1
			}
			el = append(el, graph.Edge{U: graph.V(rng.Intn(live)), V: graph.V(rng.Intn(live)), W: w})
		}
		g := graph.Build(el, n)
		k := 1 + rng.Intn(n)
		labelings := []struct {
			name  string
			label func(c int) graph.V
		}{
			{"dense", func(c int) graph.V { return graph.V(c) }},
			{"gaps", func(c int) graph.V { return graph.V((c * 7) % n) }},
			{"above N", func(c int) graph.V { return graph.V(n + 3*c) }},
			{"sparse", func(c int) graph.V { return graph.V(uint32(c+1) * 0x9E3779B1) }},
			{"mixed", func(c int) graph.V { return graph.V(c * (n/2 + 1)) }},
		}
		for _, l := range labelings {
			assign := make([]graph.V, n)
			for u := range assign {
				assign[u] = l.label(rng.Intn(k))
			}
			got, want := Modularity(g, assign), refModularity(g, assign)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s labels %v: Modularity = %v (%#x), the map version %v (%#x)",
					trial, l.name, assign, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
