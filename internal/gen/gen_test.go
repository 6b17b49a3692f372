package gen

import (
	"math"
	"slices"
	"testing"

	"parlouvain/internal/graph"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(2)
	var hist [10]int
	const draws = 100000
	for i := 0; i < draws; i++ {
		hist[r.Intn(10)]++
	}
	for b, c := range hist {
		if c < draws/10*8/10 || c > draws/10*12/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", b, c, draws/10)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(3)
	xs := make([]uint32, 1000)
	for i := range xs {
		xs[i] = uint32(i)
	}
	r.Shuffle(xs)
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("duplicate %d after shuffle", x)
		}
		seen[x] = true
	}
}

func TestPowerlawBoundsAndShape(t *testing.T) {
	r := NewRNG(4)
	const draws = 50000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		k := r.Powerlaw(2, 100, 2.5)
		if k < 2 || k > 100 {
			t.Fatalf("Powerlaw out of bounds: %d", k)
		}
		counts[k]++
	}
	// Heavier mass at the low end.
	if counts[2] < counts[10] || counts[10] < counts[50] {
		t.Errorf("power law not decreasing: c2=%d c10=%d c50=%d", counts[2], counts[10], counts[50])
	}
	// Degenerate cases.
	if r.Powerlaw(5, 5, 2.5) != 5 {
		t.Error("Powerlaw(min==max) should return min")
	}
	if got := r.Powerlaw(0, 3, 2); got < 1 || got > 3 {
		t.Errorf("Powerlaw clamps min to 1, got %d", got)
	}
}

func TestSolveKMinHitsMean(t *testing.T) {
	for _, avg := range []float64{4, 16, 32} {
		kmin := solveKMin(avg, 1000, 2.5)
		r, p := NewRNG(5), newPareto(kmin, 1000, 2.5)
		sum := 0.0
		const draws = 200000
		for i := 0; i < draws; i++ {
			sum += p.sample(r)
		}
		got := sum / draws
		if math.Abs(got-avg) > avg*0.1 {
			t.Errorf("avg %v: sampled mean %v (kmin=%v)", avg, got, kmin)
		}
	}
}

func TestRMATBasics(t *testing.T) {
	cfg := DefaultRMAT(10, 7)
	cfg.NoScramble = true // keep recursion-ordered ids for the skew check
	el, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(el) != 16*1024 {
		t.Fatalf("edges = %d, want %d", len(el), 16*1024)
	}
	if el.MaxVertex() >= 1024 {
		t.Errorf("vertex id %d out of range", el.MaxVertex())
	}
	// Determinism.
	el2, _ := RMAT(cfg)
	for i := range el {
		if el[i] != el2[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
	// Skew: R-MAT should concentrate edges on low-id vertices (quadrant A
	// largest). Compare degree mass of the first quarter vs the last.
	g := graph.Build(el, 1024)
	lo, hi := 0.0, 0.0
	for v := 0; v < 256; v++ {
		lo += g.Deg[v]
	}
	for v := 768; v < 1024; v++ {
		hi += g.Deg[v]
	}
	if lo < 2*hi {
		t.Errorf("R-MAT skew missing: low-quarter mass %v vs high %v", lo, hi)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0}); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 31}); err == nil {
		t.Error("scale 31 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, A: 0, B: 0, C: 0, D: 0}); err == nil {
		t.Error("zero probabilities accepted")
	}
}

func TestERDensity(t *testing.T) {
	const n = 400
	const p = 0.05
	el, err := ER(n, p, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n*(n-1)/2) * p
	got := float64(len(el))
	if math.Abs(got-want) > want*0.2 {
		t.Errorf("ER edges = %v, want ~%v", got, want)
	}
	// No duplicates, no self-loops (geometric skipping guarantees both).
	if c := graph.Build(el, n).NumEdges(); c != len(el) {
		t.Errorf("ER produced duplicates: %d vs %d", c, len(el))
	}
	for _, e := range el {
		if e.U == e.V {
			t.Fatal("ER produced a self-loop")
		}
	}
}

func TestERValidationAndEdgeCases(t *testing.T) {
	if _, err := ER(-1, 0.5, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := ER(10, 1.5, 1); err == nil {
		t.Error("p > 1 accepted")
	}
	if el, err := ER(10, 0, 1); err != nil || len(el) != 0 {
		t.Errorf("ER(p=0): %v %v", el, err)
	}
	if el, err := ER(1, 0.5, 1); err != nil || len(el) != 0 {
		t.Errorf("ER(n=1): %v %v", el, err)
	}
	el, err := ER(50, 1, 1)
	if err != nil || len(el) != 50*49/2 {
		t.Errorf("ER(p=1) = %d edges, want %d (err %v)", len(el), 50*49/2, err)
	}
}

func TestSBMGroundTruthDensity(t *testing.T) {
	cfg := SBMConfig{N: 200, Communities: 4, PIn: 0.3, POut: 0.01, Seed: 9}
	el, truth, err := SBM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != cfg.N {
		t.Fatalf("truth len %d", len(truth))
	}
	in, out := 0, 0
	for _, e := range el {
		if truth[e.U] == truth[e.V] {
			in++
		} else {
			out++
		}
	}
	// 4 blocks of 50: internal pairs 4*1225=4900 at 0.3 ≈ 1470;
	// external pairs 15000 at 0.01 ≈ 150.
	if in < 1000 || out > 400 {
		t.Errorf("SBM structure off: in=%d out=%d", in, out)
	}
}

func TestSBMValidation(t *testing.T) {
	if _, _, err := SBM(SBMConfig{N: 0, Communities: 1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := SBM(SBMConfig{N: 5, Communities: 10}); err == nil {
		t.Error("k>n accepted")
	}
	if _, _, err := SBM(SBMConfig{N: 5, Communities: 2, PIn: 2}); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestRingOfCliques(t *testing.T) {
	k, s := 5, 4
	el, truth, err := RingOfCliques(k, s)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := k*(s*(s-1)/2) + k
	if len(el) != wantEdges {
		t.Fatalf("edges = %d, want %d", len(el), wantEdges)
	}
	if len(truth) != k*s {
		t.Fatalf("truth len %d", len(truth))
	}
	if _, _, err := RingOfCliques(2, 4); err == nil {
		t.Error("k=2 accepted")
	}
	if _, _, err := RingOfCliques(3, 1); err == nil {
		t.Error("s=1 accepted")
	}
}

func TestLFRStructure(t *testing.T) {
	cfg := DefaultLFR(2000, 0.3, 21)
	el, truth, err := LFR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != cfg.N {
		t.Fatalf("truth len %d", len(truth))
	}
	g := graph.Build(el, cfg.N)
	// Average degree in the right ballpark (stub discarding loses a bit).
	avg := 2 * g.M / float64(cfg.N)
	if avg < cfg.AvgDegree*0.6 || avg > cfg.AvgDegree*1.4 {
		t.Errorf("avg degree %v, want ~%v", avg, cfg.AvgDegree)
	}
	// Realized mixing close to Mu.
	in, tot := 0.0, 0.0
	for _, e := range el {
		tot += e.W
		if truth[e.U] == truth[e.V] {
			in += e.W
		}
	}
	mixing := 1 - in/tot
	if math.Abs(mixing-cfg.Mu) > 0.1 {
		t.Errorf("realized mixing %v, want ~%v", mixing, cfg.Mu)
	}
	// No isolated vertices.
	for v := 0; v < cfg.N; v++ {
		if g.Deg[v] == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
	// Determinism.
	el2, truth2, _ := LFR(cfg)
	if len(el2) != len(el) {
		t.Fatal("LFR not deterministic in edge count")
	}
	for i := range truth {
		if truth[i] != truth2[i] {
			t.Fatal("LFR not deterministic in assignment")
		}
	}
}

func TestLFRMixingSweep(t *testing.T) {
	// Higher mu must produce weaker structure (monotone realized mixing).
	mix := func(mu float64) float64 {
		el, truth, err := LFR(DefaultLFR(1500, mu, 5))
		if err != nil {
			t.Fatal(err)
		}
		in, tot := 0.0, 0.0
		for _, e := range el {
			tot++
			if truth[e.U] == truth[e.V] {
				in++
			}
		}
		return 1 - in/tot
	}
	m2, m5 := mix(0.2), mix(0.5)
	if m2 >= m5 {
		t.Errorf("mixing not monotone: mu=0.2 -> %v, mu=0.5 -> %v", m2, m5)
	}
}

func TestLFRValidation(t *testing.T) {
	if _, _, err := LFR(LFRConfig{N: 5}); err == nil {
		t.Error("tiny n accepted")
	}
	if _, _, err := LFR(DefaultLFR(100, 1.0, 1)); err == nil {
		t.Error("mu=1 accepted")
	}
	bad := DefaultLFR(100, 0.3, 1)
	bad.Gamma = 1
	if _, _, err := LFR(bad); err == nil {
		t.Error("gamma=1 accepted")
	}
	bad = DefaultLFR(100, 0.3, 1)
	bad.AvgDegree = 0
	if _, _, err := LFR(bad); err == nil {
		t.Error("avg degree 0 accepted")
	}
}

func TestBTERClusteringKnob(t *testing.T) {
	// Higher rho must give more intra-block weight fraction.
	frac := func(rho float64) float64 {
		el, truth, err := BTER(DefaultBTER(3000, rho, 13))
		if err != nil {
			t.Fatal(err)
		}
		in, tot := 0.0, 0.0
		for _, e := range el {
			tot++
			if truth[e.U] == truth[e.V] {
				in++
			}
		}
		return in / tot
	}
	lo, hi := frac(0.15), frac(0.55)
	if hi <= lo {
		t.Errorf("BTER rho knob not monotone: 0.15 -> %v, 0.55 -> %v", lo, hi)
	}
}

func TestBTERValidation(t *testing.T) {
	if _, _, err := BTER(BTERConfig{N: 5}); err == nil {
		t.Error("tiny n accepted")
	}
	if _, _, err := BTER(DefaultBTER(100, 0, 1)); err == nil {
		t.Error("rho=0 accepted")
	}
	if _, _, err := BTER(DefaultBTER(100, 1.5, 1)); err == nil {
		t.Error("rho>1 accepted")
	}
	cfg := DefaultBTER(100, 0.5, 1)
	cfg.Gamma = 0.5
	if _, _, err := BTER(cfg); err == nil {
		t.Error("gamma<1 accepted")
	}
}

func TestBTERDeterministic(t *testing.T) {
	a, _, err := BTER(DefaultBTER(500, 0.4, 77))
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := BTER(DefaultBTER(500, 0.4, 77))
	if len(a) != len(b) {
		t.Fatal("BTER not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("BTER not deterministic")
		}
	}
}

// TestTriIndexExhaustive walks every cell of the triangle twice: with one
// cursor carried across increasing indices, as ER uses it, and with a fresh
// cursor per index, which must walk from row 0 to the same cell.
func TestTriIndexExhaustive(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		carried := triCursor{rowLen: int64(n - 1)}
		idx := int64(0)
		for r := 0; r < n; r++ {
			for c := r + 1; c < n; c++ {
				fresh := triCursor{rowLen: int64(n - 1)}
				for _, cur := range []*triCursor{&carried, &fresh} {
					if gr, gc := cur.at(idx); gr != r || gc != c {
						t.Fatalf("n=%d: at(%d) = (%d,%d), want (%d,%d)", n, idx, gr, gc, r, c)
					}
				}
				idx++
			}
		}
	}
}

func TestPermuteBitsIsBijection(t *testing.T) {
	for _, bits := range []int{2, 3, 8, 13} {
		n := 1 << bits
		seen := make([]bool, n)
		for x := 0; x < n; x++ {
			y := permuteBits(uint64(x), bits, 42)
			if y >= uint64(n) {
				t.Fatalf("bits=%d: permute(%d) = %d out of range", bits, x, y)
			}
			if seen[y] {
				t.Fatalf("bits=%d: collision at output %d", bits, y)
			}
			seen[y] = true
		}
	}
	if permuteBits(1, 1, 3) != 1 {
		t.Error("bits<2 must be identity")
	}
}

func TestRMATScrambleBalancesPartitions(t *testing.T) {
	cfg := DefaultRMAT(14, 7)
	el, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := graph.SplitEdges(el, 8)
	max, tot := 0, 0
	for _, p := range parts {
		if len(p) > max {
			max = len(p)
		}
		tot += len(p)
	}
	// Residual imbalance from genuine hub degrees remains; the
	// structural 3.5x pathology of unscrambled ids must be gone.
	if imb := float64(max) / (float64(tot) / 8); imb > 1.5 {
		t.Errorf("scrambled R-MAT partition imbalance %.2f, want < 1.5", imb)
	}
	// Unscrambled ids must remain available for hash experiments.
	cfg.NoScramble = true
	el2, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(el2) != len(el) {
		t.Errorf("scramble changed edge count")
	}
}

// TestEdgeSetContract holds edgeSet to a hash set of packed pairs on random
// calls, many past a vertex's degree target: the same calls are accepted,
// each as (min, max) in call order, and a list that outgrows its share
// leaves every other vertex's list as it was.
func TestEdgeSetContract(t *testing.T) {
	r := NewRNG(9)
	const n = 50
	deg := make([]int, n)
	for v := range deg {
		deg[v] = r.Intn(4)
	}
	s := newEdgeSet(deg)
	seen := map[[2]uint32]bool{}
	var want graph.EdgeList
	for i := 0; i < 2000; i++ {
		a, b := uint32(r.Intn(n)), uint32(r.Intn(n))
		lo, hi := min(a, b), max(a, b)
		fresh := a != b && !seen[[2]uint32{lo, hi}]
		if fresh {
			seen[[2]uint32{lo, hi}] = true
			want = append(want, graph.Edge{U: lo, V: hi, W: 1})
		}
		before := make([][]uint32, n)
		for v := range before {
			before[v] = append([]uint32(nil), s.nbr[v]...)
		}
		if got := s.add(a, b); got != fresh {
			t.Fatalf("call %d: add(%d, %d) = %v, want %v", i, a, b, got, fresh)
		}
		for v := range before {
			if uint32(v) == a || uint32(v) == b {
				continue
			}
			if !slices.Equal(before[v], s.nbr[v]) {
				t.Fatalf("call %d: add(%d, %d) changed vertex %d's list", i, a, b, v)
			}
		}
	}
	if !slices.Equal(s.el, want) {
		t.Errorf("edges differ from the hash-set reference")
	}
}
