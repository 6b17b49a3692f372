package core

import (
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// stopCase is one run whose stop reasons are pinned: the reason level `level`
// reports for its inner loop and the reason the descent ends with.
type stopCase struct {
	name         string
	opt          Options
	level        int
	levelStop    Stop
	descentStop  Stop
	wantLevelsLE int // the descent's length bound the reason implies; 0 for none
}

func checkStops(t *testing.T, c stopCase, res *Result) {
	t.Helper()
	if c.level >= len(res.Levels) {
		t.Fatalf("%s: %d levels, want level %d", c.name, len(res.Levels), c.level)
	}
	if got := res.Levels[c.level].Stop; got != c.levelStop {
		t.Errorf("%s: level %d stopped on %s, want %s", c.name, c.level, got, c.levelStop)
	}
	if res.Stop != c.descentStop {
		t.Errorf("%s: the descent stopped on %s, want %s", c.name, res.Stop, c.descentStop)
	}
	if c.wantLevelsLE > 0 && len(res.Levels) > c.wantLevelsLE {
		t.Errorf("%s: %d levels, want at most %d", c.name, len(res.Levels), c.wantLevelsLE)
	}
	for i, lv := range res.Levels {
		if lv.Stop < StopConverged || lv.Stop > StopMaxInner {
			t.Errorf("%s: level %d records %s, not an inner-loop reason", c.name, i, lv.Stop)
		}
	}
}

// TestHierarchyStopReasons pins every reason the whole-graph engines give: a
// level converges or runs out of MaxInner, and the descent ends on a level
// that merged nothing, gained less than MinGain, or on MaxLevels.
func TestHierarchyStopReasons(t *testing.T) {
	g, _ := plmTestGraph(t)
	ringEl, _, err := gen.RingOfCliques(30, 4) // level 1 merges neighbouring cliques
	if err != nil {
		t.Fatal(err)
	}
	ring := graph.Build(ringEl, 0)
	// Two triangles: level 0 merges each, level 1 has nothing to merge.
	triangles := graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1}}, 6)
	for _, e := range hierarchyEngines {
		for _, c := range []struct {
			stopCase
			g *graph.Graph
		}{
			{stopCase{name: "converged", level: 0, levelStop: StopConverged, descentStop: StopNoMerge}, triangles},
			{stopCase{name: "max_inner", opt: Options{MaxInner: 1, MaxLevels: 1}, level: 0, levelStop: StopMaxInner, descentStop: StopMaxLevels}, g},
			{stopCase{name: "no_merge", level: 1, levelStop: StopConverged, descentStop: StopNoMerge, wantLevelsLE: 2}, triangles},
			{stopCase{name: "min_gain", opt: Options{MinGain: 0.5}, level: 0, levelStop: StopConverged, descentStop: StopMinGain, wantLevelsLE: 2}, ring},
			{stopCase{name: "max_levels", opt: Options{MaxLevels: 1}, level: 0, levelStop: StopConverged, descentStop: StopMaxLevels, wantLevelsLE: 1}, g},
		} {
			c.name = e.name + "/" + c.name
			checkStops(t, c.stopCase, must(t)(e.run(c.g, c.opt)))
		}
	}
}

// TestParallelStopReasons pins every reason par-louvain gives, at one and two
// ranks: a level converges, runs out of patience (the heuristic's five
// iterations without progress, or the naive rule's MinGain) or of MaxInner —
// the μ = 0.5 LFR input's level 0 does, at 2 ranks — and the descent ends as
// the whole-graph engines' does.
func TestParallelStopReasons(t *testing.T) {
	lfr := func(n int, mu float64, seed uint64) graph.EdgeList {
		el, _, err := gen.LFR(gen.DefaultLFR(n, mu, seed))
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	easy, stalls, hard := lfr(1000, 0.3, 11), lfr(1000, 0.3, 7), lfr(2000, 0.5, 4)
	ring, _, err := gen.RingOfCliques(30, 4) // level 1 merges neighbouring cliques
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stopCase
		el    graph.EdgeList
		ranks []int
	}{
		{stopCase{name: "converged", level: 0, levelStop: StopConverged, descentStop: StopNoMerge}, easy, []int{1, 2}},
		{stopCase{name: "patience", level: 0, levelStop: StopPatience, descentStop: StopNoMerge}, stalls, []int{1, 2}},
		{stopCase{name: "patience/naive", opt: Options{Naive: true}, level: 0, levelStop: StopPatience, descentStop: StopNoMerge}, easy, []int{1, 2}},
		{stopCase{name: "max_inner", level: 0, levelStop: StopMaxInner, descentStop: StopNoMerge}, hard, []int{2}},
		{stopCase{name: "no_merge", level: 1, levelStop: StopConverged, descentStop: StopNoMerge, wantLevelsLE: 2}, easy, []int{1, 2}},
		{stopCase{name: "min_gain", opt: Options{MinGain: 0.5}, level: 0, levelStop: StopConverged, descentStop: StopMinGain, wantLevelsLE: 2}, ring, []int{1, 2}},
		{stopCase{name: "max_levels", opt: Options{MaxLevels: 1}, level: 0, levelStop: StopConverged, descentStop: StopMaxLevels, wantLevelsLE: 1}, easy, []int{1, 2}},
	} {
		for _, ranks := range c.ranks {
			checkStops(t, c.stopCase, must(t)(RunInProcess(c.el, 0, ranks, c.opt)))
		}
	}
}
