package core

import (
	"math"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// perturb rewires a fraction of edges deterministically, modeling a
// dynamic-graph update between detection runs.
func perturb(el graph.EdgeList, fraction float64, n int, seed uint64) graph.EdgeList {
	out := append(graph.EdgeList(nil), el...)
	rng := gen.NewRNG(seed)
	k := int(float64(len(out)) * fraction)
	for i := 0; i < k; i++ {
		j := rng.Intn(len(out))
		out[j] = graph.Edge{
			U: graph.V(rng.Intn(n)),
			V: graph.V(rng.Intn(n)),
			W: 1,
		}
	}
	return out
}

func totalInner(res *Result) int {
	t := 0
	for _, lv := range res.Levels {
		t += lv.InnerIterations
	}
	return t
}

func TestWarmStartParallelConvergesFaster(t *testing.T) {
	const n = 4000
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 61))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunInProcess(el, n, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}

	el2 := perturb(el, 0.02, n, 9)
	warm, err := RunInProcess(el2, n, 4, Options{CollectLevels: true, Warm: cold.Membership})
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := RunInProcess(el2, n, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}

	// Warm start must reach comparable quality...
	if warm.Q < cold2.Q-0.03 {
		t.Errorf("warm Q %v well below cold Q %v", warm.Q, cold2.Q)
	}
	// ...in fewer inner iterations.
	if totalInner(warm) >= totalInner(cold2) {
		t.Errorf("warm start used %d iterations, cold %d", totalInner(warm), totalInner(cold2))
	}
	// And its reported Q must match its membership.
	g := graph.Build(el2, n)
	if q := metrics.Modularity(g, warm.Membership); math.Abs(q-warm.Q) > 1e-6 {
		t.Errorf("warm reported Q %v != recomputed %v", warm.Q, q)
	}
}

func TestWarmStartSequential(t *testing.T) {
	el, truth, err := gen.SBM(gen.SBMConfig{N: 200, Communities: 4, PIn: 0.4, POut: 0.02, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 200)
	res := must(t)(Sequential(g, Options{Warm: truth}))
	if res.Q < 0.4 {
		t.Errorf("warm sequential Q = %v", res.Q)
	}
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.95 {
		t.Errorf("warm start strayed from good seed: NMI %v", sim.NMI)
	}
}

func TestWarmStartValidation(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}}
	if _, err := RunInProcess(el, 2, 1, Options{Warm: []graph.V{0}}); err == nil {
		t.Error("short warm assignment accepted")
	}
	if _, err := RunInProcess(el, 2, 1, Options{Warm: []graph.V{0, 99}}); err == nil {
		t.Error("out-of-range warm label accepted")
	}
	if _, err := Sequential(graph.Build(el, 2), Options{Warm: []graph.V{0}}); err == nil {
		t.Error("sequential short warm assignment accepted")
	}
}

func TestWarmStartIdentityIsNoop(t *testing.T) {
	// Warm-starting from the trivial singleton assignment must match a
	// cold run exactly.
	el, _, err := gen.LFR(gen.DefaultLFR(800, 0.3, 62))
	if err != nil {
		t.Fatal(err)
	}
	ident := make([]graph.V, 800)
	for i := range ident {
		ident[i] = graph.V(i)
	}
	a, err := RunInProcess(el, 800, 3, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunInProcess(el, 800, 3, Options{CollectLevels: true, Warm: ident})
	if err != nil {
		t.Fatal(err)
	}
	if a.Q != b.Q {
		t.Errorf("identity warm start changed Q: %v vs %v", a.Q, b.Q)
	}
}
