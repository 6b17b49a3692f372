package ensemble

import (
	"testing"

	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
)

func TestEnsembleRecoversStructure(t *testing.T) {
	el, truth, err := gen.LFR(gen.DefaultLFR(2000, 0.35, 17))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 2000)
	membership, _, coreGroups, err := Detect(g, Options{Runs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := metrics.Compare(membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.85 {
		t.Errorf("NMI = %v, want > 0.85", sim.NMI)
	}
	// The contraction must be coarser than vertices but finer than the
	// final communities.
	comms := len(metrics.CommunitySizes(membership))
	if coreGroups <= comms || coreGroups >= g.N {
		t.Errorf("core groups %d outside (communities %d, vertices %d)", coreGroups, comms, g.N)
	}
}

func TestEnsembleQualityComparableToSingleRun(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(1500, 0.45, 23))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 1500)
	single, err := core.Sequential(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, q, coreGroups, err := Detect(g, Options{Runs: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if q < single.Q-0.05 {
		t.Errorf("ensemble Q %v far below single-run %v", q, single.Q)
	}
	t.Logf("ensemble Q=%.4f single Q=%.4f coreGroups=%d", q, single.Q, coreGroups)
}

func TestEnsembleEmptyGraph(t *testing.T) {
	membership, _, _, err := Detect(graph.Build(nil, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(membership) != 0 {
		t.Errorf("membership %v", membership)
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	el, _, err := gen.SBM(gen.SBMConfig{N: 300, Communities: 5, PIn: 0.3, POut: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 300)
	_, qa, ga, err := Detect(g, Options{Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, qb, gb, err := Detect(g, Options{Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if qa != qb || ga != gb {
		t.Errorf("nondeterministic: Q %v vs %v, groups %d vs %d", qa, qb, ga, gb)
	}
}

func TestEnsembleEffectiveRuns(t *testing.T) {
	if EffectiveRuns(0) != 4 || EffectiveRuns(-1) != 4 || EffectiveRuns(7) != 7 {
		t.Errorf("EffectiveRuns: %d %d %d", EffectiveRuns(0), EffectiveRuns(-1), EffectiveRuns(7))
	}
}

func TestEnsembleEmitsTelemetry(t *testing.T) {
	el, _, err := gen.RingOfCliques(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	_, _, _, err = Detect(graph.Build(el, 0), Options{Runs: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	runs, finals := 0, 0
	for _, e := range rec.Events() {
		switch e.Name {
		case "ensemble_run":
			runs++
		case "ensemble_final":
			finals++
		}
	}
	if runs != 2 || finals != 1 {
		t.Errorf("events: %d runs, %d finals", runs, finals)
	}
}
