package core

import (
	"math"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

func twoTriangles() *graph.Graph {
	return graph.Build(graph.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		{U: 2, V: 3, W: 1},
	}, 0)
}

func TestSequentialTwoTriangles(t *testing.T) {
	g := twoTriangles()
	res := must(t)(Sequential(g, Options{}))
	if len(res.Levels) == 0 {
		t.Fatal("no levels")
	}
	// Optimal: each triangle one community, Q = 6/7 - 1/2.
	want := 6.0/7 - 0.5
	if math.Abs(res.Q-want) > 1e-9 {
		t.Errorf("Q = %v, want %v", res.Q, want)
	}
	m := res.Membership
	if m[0] != m[1] || m[1] != m[2] || m[3] != m[4] || m[4] != m[5] {
		t.Errorf("triangles split: %v", m)
	}
	if m[0] == m[3] {
		t.Errorf("triangles merged: %v", m)
	}
}

func TestSequentialRingOfCliques(t *testing.T) {
	el, truth, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 0)
	res := must(t)(Sequential(g, Options{}))
	if res.Q < 0.7 {
		t.Errorf("Q = %v, want > 0.7", res.Q)
	}
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.99 {
		t.Errorf("NMI vs planted cliques = %v, want ~1", sim.NMI)
	}
}

func TestSequentialRecoversSBM(t *testing.T) {
	el, truth, err := gen.SBM(gen.SBMConfig{N: 400, Communities: 8, PIn: 0.3, POut: 0.005, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 400)
	res := must(t)(Sequential(g, Options{}))
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.95 {
		t.Errorf("NMI = %v, want > 0.95", sim.NMI)
	}
}

func TestSequentialSeedChangesOrderNotValidity(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 3))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 500)
	a := must(t)(Sequential(g, Options{Seed: 1}))
	b := must(t)(Sequential(g, Options{Seed: 99}))
	// Different sweeps may find different partitions but similar quality.
	if math.Abs(a.Q-b.Q) > 0.1 {
		t.Errorf("seed instability: Q %v vs %v", a.Q, b.Q)
	}
}

func TestSequentialMovesPerIter(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 4))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 500)
	res := must(t)(Sequential(g, Options{}))
	if len(res.Levels) == 0 || len(res.Levels[0].MovesPerIter) == 0 {
		t.Fatal("no trace records")
	}
	// The last iteration of each level moves nothing (convergence).
	for i, lv := range res.Levels {
		if moves := lv.MovesPerIter; len(moves) == 0 || moves[len(moves)-1] != 0 {
			t.Errorf("level %d: sweeps moved %v, want a final sweep that moves nothing", i, moves)
		}
	}
	// First-iteration movement dominates (the paper's observation that
	// most vertices merge in iteration one).
	if first := res.Levels[0].MovesPerIter[0]; first < g.N/2 {
		t.Errorf("first sweep moved only %d of %d", first, g.N)
	}
}

func TestSequentialPartitionIsValid(t *testing.T) {
	// Equations 1 and 2: every vertex in exactly one community.
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.4, 8))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 600)
	res := must(t)(Sequential(g, Options{}))
	if len(res.Membership) != g.N {
		t.Fatalf("membership covers %d of %d vertices", len(res.Membership), g.N)
	}
	// Labels compact: 0..C-1.
	maxC := graph.V(0)
	for _, c := range res.Membership {
		if c > maxC {
			maxC = c
		}
	}
	if int(maxC)+1 < res.Levels[len(res.Levels)-1].Communities {
		t.Errorf("labels not covering community count: max %d, count %d",
			maxC, res.Levels[len(res.Levels)-1].Communities)
	}
}
