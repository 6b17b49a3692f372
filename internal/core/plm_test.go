package core

import (
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
)

func plmTestGraph(t testing.TB) (*graph.Graph, []graph.V) {
	t.Helper()
	el, truth, err := gen.LFR(gen.DefaultLFR(800, 0.3, 17))
	if err != nil {
		t.Fatal(err)
	}
	return graph.Build(el, 800), truth
}

func samePLMResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if a.Q != b.Q {
		t.Fatalf("%s: Q %v != %v", what, a.Q, b.Q)
	}
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("%s: %d levels != %d", what, len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		if a.Levels[i].Q != b.Levels[i].Q ||
			a.Levels[i].Communities != b.Levels[i].Communities ||
			a.Levels[i].InnerIterations != b.Levels[i].InnerIterations {
			t.Fatalf("%s: level %d differs: %+v vs %+v", what, i, a.Levels[i], b.Levels[i])
		}
	}
	for v := range a.Membership {
		if a.Membership[v] != b.Membership[v] {
			t.Fatalf("%s: membership differs at vertex %d", what, v)
		}
	}
}

// TestPLMReproducibleRunToRun pins fixed-seed bit-reproducibility at a
// fixed thread count.
func TestPLMReproducibleRunToRun(t *testing.T) {
	g, _ := plmTestGraph(t)
	for _, threads := range []int{1, 4} {
		a := must(t)(PLM(g, Options{Seed: 5, Threads: threads}))
		b := must(t)(PLM(g, Options{Seed: 5, Threads: threads}))
		samePLMResult(t, "rerun", a, b)
	}
}

func TestPLMQualityAndMonotonicity(t *testing.T) {
	g, truth := plmTestGraph(t)
	seq := must(t)(Sequential(g, Options{Seed: 11}))
	res := must(t)(PLM(g, Options{Seed: 11, Threads: 4}))
	if res.Q < seq.Q-0.05 {
		t.Errorf("PLM Q %v far below sequential %v", res.Q, seq.Q)
	}
	qPrev := -1.0
	for i, lv := range res.Levels {
		if lv.Q < qPrev-1e-9 {
			t.Errorf("level %d Q decreased: %v -> %v", i, qPrev, lv.Q)
		}
		qPrev = lv.Q
	}
	if q := metrics.Modularity(g, res.Membership); q-res.Q > 1e-9 || res.Q-q > 1e-9 {
		t.Errorf("reported Q %v != recomputed %v", res.Q, q)
	}
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.55 {
		t.Errorf("NMI vs planted truth = %v", sim.NMI)
	}
}

func TestPLMOrderings(t *testing.T) {
	g, _ := plmTestGraph(t)
	for _, ord := range []movesched.Ordering{
		movesched.OrderNatural, movesched.OrderShuffle,
		movesched.OrderDegreeAsc, movesched.OrderDegreeDesc,
	} {
		res := must(t)(PLM(g, Options{Seed: 3, Threads: 2, Order: ord}))
		if res.Q < 0.3 {
			t.Errorf("order %v: Q = %v implausibly low", ord, res.Q)
		}
		if q := metrics.Modularity(g, res.Membership); q-res.Q > 1e-9 || res.Q-q > 1e-9 {
			t.Errorf("order %v: reported Q %v != recomputed %v", ord, res.Q, q)
		}
	}
}

func TestResolveThreads(t *testing.T) {
	if got := ResolveThreads(3); got != 3 {
		t.Errorf("ResolveThreads(3) = %d", got)
	}
	if got := ResolveThreads(0); got < 1 {
		t.Errorf("ResolveThreads(0) = %d, want >= 1", got)
	}
	if got := ResolveThreads(-1); got < 1 {
		t.Errorf("ResolveThreads(-1) = %d, want >= 1", got)
	}
}

// TestSequentialOrderHookUnchanged pins that threading the ordering through
// movesched left the sequential engine bit-identical: OrderDefault with and
// without seed reproduces the historical sweeps.
func TestSequentialOrderHookUnchanged(t *testing.T) {
	g, _ := plmTestGraph(t)
	natural := must(t)(Sequential(g, Options{Order: movesched.OrderNatural}))
	def := must(t)(Sequential(g, Options{}))
	samePLMResult(t, "unseeded default==natural", natural, def)

	explicit := must(t)(Sequential(g, Options{Seed: 13, Order: movesched.OrderShuffle}))
	seeded := must(t)(Sequential(g, Options{Seed: 13}))
	samePLMResult(t, "seeded default==shuffle", explicit, seeded)
}
