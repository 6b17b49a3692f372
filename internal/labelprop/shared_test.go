package labelprop

import (
	"fmt"
	"slices"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
)

func sharedTestGraph(t testing.TB) (*graph.Graph, []graph.V) {
	t.Helper()
	el, truth, err := gen.LFR(gen.DefaultLFR(800, 0.3, 23))
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(el, 800), truth
}

// TestSharedDeterministicAcrossThreads is the PLP determinism contract:
// synchronous sweeps read only the previous generation, so the labeling is
// bit-identical for every thread count. (Run under -race in CI, this
// doubles as the data-race check on the sweep fan-out.)
func TestSharedDeterministicAcrossThreads(t *testing.T) {
	g, _ := sharedTestGraph(t)
	base, baseMoves := Shared(g, Options{Seed: 4}, 1)
	for _, threads := range []int{2, 4} {
		labels, moves := Shared(g, Options{Seed: 4}, threads)
		if len(moves) != len(baseMoves) {
			t.Fatalf("threads=%d: %d sweeps != %d", threads, len(moves), len(baseMoves))
		}
		for i := range moves {
			if moves[i] != baseMoves[i] {
				t.Fatalf("threads=%d: sweep %d moved %d != %d", threads, i, moves[i], baseMoves[i])
			}
		}
		for u := range labels {
			if labels[u] != base[u] {
				t.Fatalf("threads=%d: label differs at vertex %d", threads, u)
			}
		}
	}
}

func TestSharedReproducibleRunToRun(t *testing.T) {
	g, _ := sharedTestGraph(t)
	a, _ := Shared(g, Options{Seed: 8}, 4)
	b, _ := Shared(g, Options{Seed: 8}, 4)
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("rerun differs at vertex %d", u)
		}
	}
}

func TestSharedQuality(t *testing.T) {
	g, truth := sharedTestGraph(t)
	labels, moves := Shared(g, Options{Seed: 4}, 4)
	if len(moves) == 0 {
		t.Fatal("no sweeps ran")
	}
	if q := metrics.Modularity(g, labels); q < 0.3 {
		t.Errorf("modularity %v implausibly low for mu=0.3 LFR", q)
	}
	sim, err := metrics.Compare(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.55 {
		t.Errorf("NMI vs planted truth = %v", sim.NMI)
	}
}

func TestSharedEmitsSweepEvents(t *testing.T) {
	g, _ := sharedTestGraph(t)
	rec := obs.NewRecorder()
	_, moves := Shared(g, Options{Seed: 4, Recorder: rec}, 2)
	sweeps := 0
	for _, e := range rec.Events() {
		if e.Name == "sweep" {
			sweeps++
		}
	}
	if sweeps != len(moves) {
		t.Errorf("emitted %d sweep events for %d sweeps", sweeps, len(moves))
	}
}

func TestSharedTrivialGraphs(t *testing.T) {
	labels, _ := Shared(graph.Build(nil, 0), Options{}, 4)
	if len(labels) != 0 {
		t.Errorf("empty graph labels: %v", labels)
	}
	// Isolated vertices keep their own labels.
	labels, _ = Shared(graph.Build(nil, 3), Options{}, 2)
	for u, l := range labels {
		if l != graph.V(u) {
			t.Errorf("isolated vertex %d got label %d", u, l)
		}
	}
}

// TestSharedMatchesParallel pins the claim of Shared's doc: its adoption rule
// is Parallel's, so the plp engine returns the lpa engine's labels. Both are
// compared at several thread and rank counts on LFR at low and high mixing
// and on R-MAT with integer weights, fractional weights (summed in a
// different order by the two implementations) and added self-loops (which
// feed the current label in both).
func TestSharedMatchesParallel(t *testing.T) {
	type input struct {
		name string
		el   graph.EdgeList
	}
	var inputs []input
	for seed := uint64(1); seed <= 3; seed++ {
		for _, mu := range []float64{0.1, 0.5} {
			el, _, err := gen.LFR(gen.DefaultLFR(2000, mu, seed))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("lfr-mu%.1f-seed%d", mu, seed), el})
		}
		el, err := gen.RMAT(gen.DefaultRMAT(10, seed))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat-int-seed%d", seed), el})
		frac := make(graph.EdgeList, len(el))
		for i, e := range el {
			e.W = float64(1+i%7) / 3
			frac[i] = e
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat-frac-seed%d", seed), frac})
		loops := append(graph.EdgeList(nil), el...)
		for u := graph.V(0); int(u) < el.NumVertices(); u += 3 {
			loops = append(loops, graph.Edge{U: u, V: u, W: 2})
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat-selfloops-seed%d", seed), loops})
	}
	for _, in := range inputs {
		n := in.el.NumVertices()
		g := graph.Build(in.el, n)
		for _, tie := range []uint64{0, 7} {
			opt := Options{Seed: tie}
			want, _ := runParallel(t, in.el, n, 1, opt)
			for _, ranks := range []int{2, 3} {
				if got, _ := runParallel(t, in.el, n, ranks, opt); !slices.Equal(got, want) {
					t.Errorf("%s tie=%d: Parallel at %d ranks differs from 1 rank", in.name, tie, ranks)
				}
			}
			for _, threads := range []int{1, 2, 4} {
				if got, _ := Shared(g, opt, threads); !slices.Equal(got, want) {
					t.Errorf("%s tie=%d: Shared at %d threads differs from Parallel", in.name, tie, threads)
				}
			}
		}
	}
}
