package labelprop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// countingTransport records the bytes each round of its rank sends.
type countingTransport struct {
	comm.Transport
	sent []int
}

func (c *countingTransport) Exchange(out [][]byte) ([][]byte, error) {
	n := 0
	for _, b := range out {
		n += len(b)
	}
	c.sent = append(c.sent, n)
	return c.Transport.Exchange(out)
}

// lpaGroup runs Parallel on parts over an in-process mem group, one goroutine
// per rank, and returns rank 0's labels and move counts, every rank's error
// and the bytes the group sent in each of rank 0's rounds. A rank whose
// labels differ from rank 0's fails the test: every rank returns them all.
func lpaGroup(t testing.TB, parts []graph.EdgeList, n int, opt Options) ([]graph.V, []int, []error, []int) {
	t.Helper()
	ranks := len(parts)
	trs := comm.NewMemGroup(ranks)
	counted := make([]*countingTransport, ranks)
	labels := make([][]graph.V, ranks)
	moves := make([][]int, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range ranks {
		counted[r] = &countingTransport{Transport: trs[r]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels[r], moves[r], errs[r] = Parallel(comm.New(counted[r]), parts[r], n, opt)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the group did not return within a minute")
	}
	for _, tr := range trs {
		tr.Close()
	}
	for r := range ranks {
		if errs[r] == nil && !slices.Equal(labels[r], labels[0]) {
			t.Fatalf("rank %d returned other labels than rank 0", r)
		}
	}
	rounds := make([]int, len(counted[0].sent))
	for _, c := range counted {
		for i, b := range c.sent {
			rounds[i] += b
		}
	}
	return labels[0], moves[0], errs, rounds
}

// runParallel runs Parallel on el at the given rank count, failing the test on
// any rank's error (the registry driver in internal/algo is the production
// path; this keeps the package self-contained).
func runParallel(t testing.TB, el graph.EdgeList, n, ranks int, opt Options) ([]graph.V, []int) {
	t.Helper()
	if n <= 0 {
		n = el.NumVertices()
	}
	labels, moves, errs, _ := lpaGroup(t, graph.SplitEdges(el, ranks), n, opt)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return labels, moves
}

// TestParallelBytesFollowChanges pins every round of a run at one to three
// ranks. Sweep s sends 8 bytes per (vertex that changed label in s, rank
// that reads it) — the ranks that own its neighbors, its own too when it has a
// self-loop — plus the head of each plane: the sender's move count as a
// uvarint, after the 8-byte mirror sum in the first sweep. A run is one round
// per sweep plus the label gather. Which vertices change in which sweep is
// read off Shared stopped after 1, 2, ... sweeps.
func TestParallelBytesFollowChanges(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.V(0); u < 600; u += 7 {
		el = append(el, graph.Edge{U: u, V: u, W: 1})
	}
	const n = 610 // the last ten ids are isolated
	g := graph.Build(el, n)
	for _, ranks := range []int{1, 2, 3} {
		part := graph.Partition{Size: ranks}
		labels, moves, errs, rounds := lpaGroup(t, graph.SplitEdges(el, ranks), n, Options{})
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		if len(rounds) != len(moves)+1 {
			t.Errorf("ranks=%d: %d rounds for %d sweeps, want one per sweep and the gather", ranks, len(rounds), len(moves))
		}
		prev := make([]graph.V, n)
		for u := range prev {
			prev[u] = graph.V(u)
		}
		for s := 1; s <= len(moves) && s < len(rounds); s++ {
			cur, _ := Shared(g, Options{MaxSweeps: s}, 1)
			movers := make([]int, ranks)
			want := 0
			for u := range cur {
				if cur[u] == prev[u] {
					continue
				}
				movers[part.Owner(graph.V(u))]++
				readers := map[int]bool{}
				for _, v := range g.Nbr[g.Off[u]:g.Off[u+1]] {
					readers[part.Owner(v)] = true
				}
				if g.SelfW[u] != 0 {
					readers[part.Owner(graph.V(u))] = true
				}
				want += 8 * len(readers)
			}
			total := 0
			for _, m := range movers {
				total += m
				want += ranks * len(binary.AppendUvarint(nil, uint64(m)))
			}
			if s == 1 {
				want += 8 * ranks * ranks
			}
			if moves[s-1] != total || rounds[s-1] != want {
				t.Errorf("ranks=%d sweep %d: %d moves in %d bytes, want %d in %d", ranks, s, moves[s-1], rounds[s-1], total, want)
			}
			prev = cur
		}
		if !slices.Equal(labels, prev) {
			t.Errorf("ranks=%d: the labels are not Shared's", ranks)
		}
	}
}

// TestParallelRefusesAsymmetricInput drops the mirror of one edge: every rank
// of a one- to three-rank group must return an error naming itself after the
// first round, the one that carries the mirror sum.
func TestParallelRefusesAsymmetricInput(t *testing.T) {
	el, _, err := gen.RingOfCliques(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := el[0]
	for _, ranks := range []int{1, 2, 3} {
		parts := graph.SplitEdges(el, ranks)
		o := graph.Partition{Size: ranks}.Owner(e.U)
		parts[o] = slices.DeleteFunc(parts[o], func(x graph.Edge) bool { return x.U == e.V && x.V == e.U })
		_, _, errs, rounds := lpaGroup(t, parts, el.NumVertices(), Options{})
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d:", r)) || !strings.Contains(err.Error(), "not symmetric") {
				t.Errorf("ranks=%d: rank %d returned %v, want its refusal of an asymmetric input", ranks, r, err)
			}
		}
		if len(rounds) != 1 {
			t.Errorf("ranks=%d: refused after %d rounds, want 1", ranks, len(rounds))
		}
	}
}

// FuzzLPA holds Parallel at one to three ranks to Shared on fuzzed lists. The
// payload is read as (u, v, w) byte triples over at most 24 ids, so
// self-loops and duplicate edges occur, with weights in halves from -3.5 to
// 3.5, which sum exactly in any order; the vertex space runs four ids past
// the largest endpoint, and those ids stay isolated.
func FuzzLPA(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 2, 2, 0, 2, 3, 4, 2, 4, 5, 2, 5, 3, 2, 2, 3, 1}, uint8(1), uint8(0))
	f.Add([]byte{0, 0, 4, 0, 1, 2, 0, 1, 2, 1, 1, 6, 1, 2, 2, 7, 7, 1}, uint8(2), uint8(3))
	f.Add([]byte{0, 1, 2, 2, 3, 2, 4, 5, 2, 0, 5, 1, 9, 9, 0xfe}, uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, ranks, seed uint8) {
		var el graph.EdgeList
		n := 4
		for i := 0; i+2 < len(data) && len(el) < 96; i += 3 {
			e := graph.Edge{U: graph.V(data[i] % 24), V: graph.V(data[i+1] % 24), W: float64(int8(data[i+2])%8) / 2}
			el = append(el, e)
			n = max(n, int(max(e.U, e.V))+5)
		}
		opt := Options{Seed: uint64(seed)}
		want, _ := Shared(graph.Build(el, n), opt, 2)
		if got, _ := runParallel(t, el, n, int(ranks)%3+1, opt); !slices.Equal(got, want) {
			t.Fatalf("%d ranks: %v, Shared %v", int(ranks)%3+1, got, want)
		}
	})
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
