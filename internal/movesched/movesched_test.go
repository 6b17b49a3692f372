package movesched

import (
	"math/rand"
	"testing"
)

// randAdj builds a deterministic random undirected adjacency over n
// vertices with roughly avgDeg neighbors each.
func randAdj(n, avgDeg int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	edges := n * avgDeg / 2
	for e := 0; e < edges; e++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return adj
}

func neighborsOf(adj [][]uint32) func(u uint32, emit func(v uint32)) {
	return func(u uint32, emit func(v uint32)) {
		for _, v := range adj[u] {
			emit(v)
		}
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	deg := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	n := len(deg)
	for _, ord := range []Ordering{OrderDefault, OrderNatural, OrderShuffle, OrderDegreeAsc, OrderDegreeDesc} {
		for _, seed := range []uint64{0, 1, 42} {
			p := Permutation(n, ord, deg, seed)
			if len(p) != n {
				t.Fatalf("%v seed %d: length %d", ord, seed, len(p))
			}
			seen := make([]bool, n)
			for _, u := range p {
				if int(u) >= n || seen[u] {
					t.Fatalf("%v seed %d: not a permutation: %v", ord, seed, p)
				}
				seen[u] = true
			}
		}
	}
}

func TestPermutationDefaultMatchesLegacy(t *testing.T) {
	// OrderDefault with seed 0 is natural order; with a seed it is exactly
	// the seeded Fisher-Yates shuffle the engines always used.
	n := 100
	p := Permutation(n, OrderDefault, nil, 0)
	for i, u := range p {
		if int(u) != i {
			t.Fatalf("unseeded default order not natural at %d: %d", i, u)
		}
	}
	want := make([]uint32, n)
	for i := range want {
		want[i] = uint32(i)
	}
	Shuffle(want, 7)
	got := Permutation(n, OrderDefault, nil, 7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeded default order diverges from Shuffle at %d", i)
		}
	}
}

func TestPermutationDegreeOrders(t *testing.T) {
	deg := []float64{3, 1, 4, 1, 5}
	asc := Permutation(len(deg), OrderDegreeAsc, deg, 0)
	for i := 1; i < len(asc); i++ {
		a, b := asc[i-1], asc[i]
		if deg[a] > deg[b] || (deg[a] == deg[b] && a > b) {
			t.Fatalf("degree-asc out of order at %d: %v", i, asc)
		}
	}
	desc := Permutation(len(deg), OrderDegreeDesc, deg, 0)
	for i := 1; i < len(desc); i++ {
		a, b := desc[i-1], desc[i]
		if deg[a] < deg[b] || (deg[a] == deg[b] && a > b) {
			t.Fatalf("degree-desc out of order at %d: %v", i, desc)
		}
	}
}

func TestParseOrderingRoundTrip(t *testing.T) {
	for _, ord := range []Ordering{OrderDefault, OrderNatural, OrderShuffle, OrderDegreeAsc, OrderDegreeDesc} {
		got, err := ParseOrdering(ord.String())
		if err != nil || got != ord {
			t.Errorf("ParseOrdering(%q) = %v, %v", ord.String(), got, err)
		}
	}
	if _, err := ParseOrdering("bogus"); err == nil {
		t.Error("bogus ordering accepted")
	}
	if got, err := ParseOrdering(""); err != nil || got != OrderDefault {
		t.Errorf("empty ordering: %v, %v", got, err)
	}
}

// checkColoring asserts the defining properties: every vertex colored, no
// adjacent pair shares a color, batches partition the vertex set and agree
// with the Color array.
func checkColoring(t *testing.T, n int, adj [][]uint32, c Coloring) {
	t.Helper()
	if len(c.Color) != n {
		t.Fatalf("Color covers %d of %d", len(c.Color), n)
	}
	for u, cu := range c.Color {
		if cu < 0 || int(cu) >= c.NumColors() {
			t.Fatalf("vertex %d has color %d outside [0,%d)", u, cu, c.NumColors())
		}
		for _, v := range adj[u] {
			if v != uint32(u) && c.Color[v] == cu {
				t.Fatalf("adjacent vertices %d and %d share color %d", u, v, cu)
			}
		}
	}
	seen := make([]bool, n)
	total := 0
	for color, batch := range c.Batches {
		for _, u := range batch {
			if seen[u] {
				t.Fatalf("vertex %d in two batches", u)
			}
			seen[u] = true
			total++
			if c.Color[u] != int32(color) {
				t.Fatalf("vertex %d in batch %d but Color says %d", u, color, c.Color[u])
			}
		}
	}
	if total != n {
		t.Fatalf("batches cover %d of %d vertices", total, n)
	}
}

func TestGreedyColoringValid(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		n := 500
		adj := randAdj(n, 8, seed)
		for _, ord := range []Ordering{OrderNatural, OrderShuffle, OrderDegreeDesc} {
			deg := make([]float64, n)
			for u := range adj {
				deg[u] = float64(len(adj[u]))
			}
			order := Permutation(n, ord, deg, uint64(seed))
			c := Greedy(n, order, neighborsOf(adj))
			checkColoring(t, n, adj, c)
		}
	}
}

func TestGreedyColoringDeterministic(t *testing.T) {
	n := 300
	adj := randAdj(n, 6, 9)
	order := Permutation(n, OrderShuffle, nil, 5)
	a := Greedy(n, order, neighborsOf(adj))
	b := Greedy(n, order, neighborsOf(adj))
	for u := range a.Color {
		if a.Color[u] != b.Color[u] {
			t.Fatalf("coloring not deterministic at vertex %d", u)
		}
	}
}

func TestGreedyColoringCompleteGraph(t *testing.T) {
	// K5 needs exactly 5 colors under any order.
	n := 5
	adj := make([][]uint32, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				adj[u] = append(adj[u], uint32(v))
			}
		}
	}
	c := Greedy(n, Permutation(n, OrderNatural, nil, 0), neighborsOf(adj))
	checkColoring(t, n, adj, c)
	if c.NumColors() != 5 {
		t.Errorf("K5 colored with %d colors", c.NumColors())
	}
}

func TestQueueFIFOAndDedup(t *testing.T) {
	q := NewQueue(10)
	for _, u := range []uint32{3, 1, 4, 1, 5, 3} {
		q.Push(u)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d after deduped pushes", q.Len())
	}
	want := []uint32{3, 1, 4, 5}
	for _, w := range want {
		u, ok := q.Pop()
		if !ok || u != w {
			t.Fatalf("Pop = %d,%v want %d", u, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

// TestQueueNeverDropsActive drives random interleaved pushes and pops
// (forcing many prefix compactions) against a reference map: every pushed
// vertex must come back out exactly once per residency.
func TestQueueNeverDropsActive(t *testing.T) {
	n := 64
	q := NewQueue(n)
	rng := rand.New(rand.NewSource(12))
	inRef := make([]bool, n)
	queued := 0
	popped := 0
	for step := 0; step < 100000; step++ {
		if rng.Intn(3) > 0 { // push-biased so compaction paths trigger
			u := uint32(rng.Intn(n))
			added := q.Push(u)
			if added == inRef[u] {
				t.Fatalf("step %d: Push(%d) added=%v but ref in-queue=%v", step, u, added, inRef[u])
			}
			if added {
				inRef[u] = true
				queued++
			}
		} else {
			u, ok := q.Pop()
			if !ok {
				if queued != popped {
					t.Fatalf("step %d: queue claims empty with %d outstanding", step, queued-popped)
				}
				continue
			}
			if !inRef[u] {
				t.Fatalf("step %d: popped %d which ref says is not queued", step, u)
			}
			inRef[u] = false
			popped++
		}
	}
	for {
		u, ok := q.Pop()
		if !ok {
			break
		}
		if !inRef[u] {
			t.Fatalf("drain popped %d not in ref", u)
		}
		inRef[u] = false
		popped++
	}
	if queued != popped {
		t.Fatalf("queued %d, popped %d — vertices dropped", queued, popped)
	}
	for u, in := range inRef {
		if in {
			t.Fatalf("vertex %d stuck in queue", u)
		}
	}
}

func TestActiveSetFlip(t *testing.T) {
	a := NewActiveSet(5, true)
	for u := uint32(0); u < 5; u++ {
		if !a.Active(u) {
			t.Fatalf("NewActiveSet(all=true): vertex %d starts inactive", u)
		}
	}
	a.MarkNext(2)
	a.MarkNext(4)
	a.MarkNext(2) // idempotent
	if got := a.Flip(); got != 2 {
		t.Fatalf("Flip = %d, want 2", got)
	}
	for u := uint32(0); u < 5; u++ {
		want := u == 2 || u == 4
		if a.Active(u) != want {
			t.Errorf("Active(%d) = %v", u, a.Active(u))
		}
	}
	if got := a.Flip(); got != 0 {
		t.Fatalf("second Flip = %d, want 0", got)
	}
	empty := NewActiveSet(3, false)
	if empty.Active(0) {
		t.Error("NewActiveSet(all=false) starts active")
	}
	if got := empty.Flip(); got != 0 {
		t.Errorf("Flip of an unmarked set = %d, want 0", got)
	}
}

// FuzzColoring feeds arbitrary edge bytes into Greedy and asserts the
// coloring stays valid: every vertex colored, no adjacent same-color pair,
// batches a partition.
func FuzzColoring(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(16), uint64(1))
	f.Add([]byte{}, uint8(1), uint64(0))
	f.Add([]byte{5, 5, 0, 3}, uint8(8), uint64(7))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8, seed uint64) {
		n := int(nRaw)%64 + 1
		adj := make([][]uint32, n)
		for i := 0; i+1 < len(raw); i += 2 {
			u := uint32(raw[i]) % uint32(n)
			v := uint32(raw[i+1]) % uint32(n)
			if u == v {
				continue
			}
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		deg := make([]float64, n)
		for u := range adj {
			deg[u] = float64(len(adj[u]))
		}
		ord := Ordering(seed % 5)
		order := Permutation(n, ord, deg, seed)
		c := Greedy(n, order, neighborsOf(adj))
		checkColoring(t, n, adj, c)
	})
}

func BenchmarkGreedyColoring(b *testing.B) {
	n := 10000
	adj := randAdj(n, 16, 3)
	order := Permutation(n, OrderNatural, nil, 0)
	nb := neighborsOf(adj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(n, order, nb)
	}
}
