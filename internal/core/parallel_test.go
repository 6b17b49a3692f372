package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/perf"
)

func TestParallelTwoTrianglesOneRank(t *testing.T) {
	el := graph.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		{U: 2, V: 3, W: 1},
	}
	res, err := RunInProcess(el, 6, 1, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 6.0/7 - 0.5
	if math.Abs(res.Q-want) > 1e-9 {
		t.Errorf("Q = %v, want %v", res.Q, want)
	}
	m := res.Membership
	if m[0] != m[1] || m[1] != m[2] || m[3] != m[4] || m[4] != m[5] || m[0] == m[3] {
		t.Errorf("membership %v", m)
	}
}

func TestParallelMatchesSequentialQuality(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 2000)
	seq := must(t)(Sequential(g, Options{}))
	for _, ranks := range []int{1, 2, 4, 7} {
		res, err := RunInProcess(el, 2000, ranks, Options{CollectLevels: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if math.Abs(res.Q-seq.Q) > 0.05 {
			t.Errorf("ranks=%d: parallel Q %v vs sequential %v", ranks, res.Q, seq.Q)
		}
		// Reported Q must equal the membership's true modularity.
		got := metrics.Modularity(g, res.Membership)
		if math.Abs(got-res.Q) > 1e-6 {
			t.Errorf("ranks=%d: reported Q %v != recomputed %v", ranks, res.Q, got)
		}
	}
}

func TestParallelThreadsInvariance(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3, 13))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunInProcess(el, 1000, 2, Options{Threads: 1, CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4} {
		res, err := RunInProcess(el, 1000, 2, Options{Threads: threads, CollectLevels: true})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if math.Abs(res.Q-base.Q) > 1e-6 {
			t.Errorf("threads=%d changed Q: %v vs %v", threads, res.Q, base.Q)
		}
	}
}

func TestParallelRecoversPlantedCommunities(t *testing.T) {
	el, truth, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 2000, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.85 {
		t.Errorf("NMI vs ground truth = %v, want > 0.85", sim.NMI)
	}
}

func TestParallelRingOfCliques(t *testing.T) {
	el, truth, err := gen.RingOfCliques(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 0, 3, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := metrics.Compare(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.95 {
		t.Errorf("NMI = %v, want > 0.95 (membership %v)", sim.NMI, res.Membership[:12])
	}
}

func TestParallelDeterministicForFixedConfig(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(800, 0.4, 23))
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunInProcess(el, 800, 3, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunInProcess(el, 800, 3, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Q != b.Q {
		t.Errorf("Q differs across identical runs: %v vs %v", a.Q, b.Q)
	}
	for i := range a.Membership {
		if a.Membership[i] != b.Membership[i] {
			t.Fatalf("membership differs at %d", i)
		}
	}
}

func TestParallelNaiveConvergesWorse(t *testing.T) {
	// Figure 4's claim: without the heuristic the parallel algorithm
	// reaches much lower modularity under the same iteration budget.
	el, _, err := gen.LFR(gen.DefaultLFR(2000, 0.4, 31))
	if err != nil {
		t.Fatal(err)
	}
	good, err := RunInProcess(el, 2000, 4, Options{MaxInner: 8, MaxLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunInProcess(el, 2000, 4, Options{MaxInner: 8, MaxLevels: 3, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Q > good.Q+0.02 {
		t.Errorf("naive Q %v unexpectedly beats heuristic Q %v", naive.Q, good.Q)
	}
	t.Logf("heuristic Q=%.4f naive Q=%.4f", good.Q, naive.Q)
}

func TestParallelEmptyGraph(t *testing.T) {
	res, err := RunInProcess(nil, 10, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q != 0 || len(res.Levels) != 0 {
		t.Errorf("empty: Q=%v levels=%d", res.Q, len(res.Levels))
	}
}

func TestParallelSelfLoopsAndIsolated(t *testing.T) {
	// Self-loops, isolated vertices and multi-edges together.
	el := graph.EdgeList{
		{U: 0, V: 0, W: 2},
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}, // duplicate edge, merged
		{U: 2, V: 3, W: 5},
		// vertex 4 isolated
	}
	res, err := RunInProcess(el, 5, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, 5)
	got := metrics.Modularity(g, res.Membership)
	if math.Abs(got-res.Q) > 1e-9 {
		t.Errorf("reported Q %v != recomputed %v", res.Q, got)
	}
	if res.Membership[2] != res.Membership[3] {
		t.Error("2-3 should merge")
	}
}

func TestParallelWeightedGraph(t *testing.T) {
	// Heavy weights dominate community formation.
	el := graph.EdgeList{
		{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 10},
		{U: 3, V: 4, W: 10}, {U: 4, V: 5, W: 10},
		{U: 2, V: 3, W: 0.1},
	}
	res, err := RunInProcess(el, 6, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Membership
	if m[0] != m[1] || m[1] != m[2] || m[3] != m[4] || m[4] != m[5] || m[2] == m[3] {
		t.Errorf("weighted communities wrong: %v", m)
	}
}

// TestParallelFractionalWeightsLevelShapes: the vertices of level l+1 are
// the communities of level l, exactly, on weights that do not sum exactly.
// The hash Out_Table failed this — moving a 0.1·k contribution out of an
// aggregation left residues like 5.5e-17 that read as live edges to dead
// communities, which reconstruction shipped and the next level counted as
// vertices; a row entry reads one community, so there is nothing to leave
// behind.
func TestParallelFractionalWeightsLevelShapes(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 77))
	if err != nil {
		t.Fatal(err)
	}
	for i := range el {
		el[i].W = 0.1 * float64(1+i%7)
	}
	for _, ranks := range []int{1, 2, 4} {
		res, err := RunInProcess(el, 600, ranks, Options{CollectLevels: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(res.Levels) < 2 {
			t.Fatalf("ranks=%d: want a multi-level hierarchy, got %d levels", ranks, len(res.Levels))
		}
		for l, lv := range res.Levels {
			distinct := map[graph.V]struct{}{}
			for _, c := range lv.Membership {
				distinct[c] = struct{}{}
			}
			if lv.Communities != len(distinct) {
				t.Errorf("ranks=%d level %d: Communities=%d for %d distinct labels", ranks, l, lv.Communities, len(distinct))
			}
			if l+1 < len(res.Levels) && res.Levels[l+1].Vertices != lv.Communities {
				t.Errorf("ranks=%d: level %d has %d vertices, level %d found %d communities",
					ranks, l+1, res.Levels[l+1].Vertices, l, lv.Communities)
			}
		}
	}
}

func TestParallelEvolutionRatioShrinks(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(3000, 0.2, 41))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 3000, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratios := res.EvolutionRatios()
	if len(ratios) == 0 {
		t.Fatal("no levels")
	}
	// The paper: >90% of vertices merged in the first iteration for
	// graphs with strong structure.
	if ratios[0] > 0.35 {
		t.Errorf("first-level evolution ratio %v, want < 0.35", ratios[0])
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] > ratios[i-1]+1e-9 {
			t.Errorf("evolution ratio grew: %v", ratios)
		}
	}
}

func TestParallelMoreRanksThanVertices(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	res, err := RunInProcess(el, 3, 8, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Membership[0] != res.Membership[1] || res.Membership[1] != res.Membership[2] {
		t.Errorf("path of 3 should merge fully: %v", res.Membership)
	}
}

func TestParallelInvalidInputs(t *testing.T) {
	// Edge outside vertex space.
	if _, err := RunInProcess(graph.EdgeList{{U: 0, V: 9, W: 1}}, 3, 2, Options{}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	// The rank handed a bad edge says which, whatever its share of the rows:
	// loadLocal sorts nothing it has not checked.
	const n = 6
	for _, ranks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2} {
			for r, tr := range comm.NewMemGroup(ranks) {
				own := graph.V(r)
				for _, bad := range []struct {
					e    graph.Edge
					want string
				}{
					{graph.Edge{U: n, V: own, W: 1}, "outside vertex space 6"},
					{graph.Edge{U: 0, V: own + graph.V(n*ranks), W: 1}, "outside vertex space 6"},
					{graph.Edge{U: 1, V: own, W: math.NaN()}, "non-finite weight"},
					{graph.Edge{U: 1, V: own, W: math.Inf(1)}, "non-finite weight"},
					{graph.Edge{U: 1, V: own, W: -0.5}, "has negative weight -0.5"},
					{graph.Edge{U: 1, V: own + 1, W: 1}, "owned by rank"},
				} {
					if ranks == 1 && bad.want == "owned by rank" {
						continue
					}
					s := newEngine(comm.New(tr), n, Options{Threads: threads}.withDefaults())
					err := s.loadLocal(graph.EdgeList{{U: own, V: own, W: 1}, bad.e})
					s.planes.Release()
					if err == nil || !strings.Contains(err.Error(), bad.want) {
						t.Errorf("ranks=%d/threads=%d rank %d: edge %v: err = %v, want %q", ranks, threads, r, bad.e, err, bad.want)
					}
				}
				tr.Close()
			}
		}
	}
	// A refused edge fails the whole group: the edge (0, ranks) and its mirror
	// both live at rank 0, and the other ranks, whose input is fine, must not
	// wait for it.
	for _, ranks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2} {
			el := graph.EdgeList{{U: 0, V: graph.V(ranks), W: -1}, {U: 1, V: 2, W: 1}, {U: 2, V: 5, W: 1}}
			for r, err := range groupErrors(t, graph.SplitEdges(el, ranks), n, Options{Threads: threads}) {
				want := "refused an edge"
				if r == 0 {
					want = "has negative weight -1"
				}
				if !strings.Contains(err.Error(), want) {
					t.Errorf("ranks=%d/threads=%d rank %d: err = %v, want %q", ranks, threads, r, err, want)
				}
			}
		}
	}
}

// groupErrors runs Parallel on every rank of an in-process group, rank r on
// parts[r], and returns every rank's error; a rank that returns a partition or
// no error, or a group that does not return within a minute, fails the test.
func groupErrors(t *testing.T, parts []graph.EdgeList, n int, opt Options) []error {
	t.Helper()
	var results []*Result
	var errs []error
	guard(t, time.Minute, "the group", func() { results, errs = parallelGroup(parts, n, opt) })
	for r, err := range errs {
		if results[r] != nil || err == nil {
			t.Fatalf("rank %d returned a partition (err = %v)", r, err)
		}
	}
	return errs
}

func TestParallelTotalWeightInvariant(t *testing.T) {
	// Reconstruction preserves total weight: the modularity normalizer m
	// must be identical at every level; equivalently the final Q computed
	// on the original graph must match the engine's running Q (already
	// checked), and level Qs must be non-decreasing.
	el, _, err := gen.LFR(gen.DefaultLFR(1500, 0.3, 47))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 1500, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Q < res.Levels[i-1].Q-0.01 {
			t.Errorf("level Q dropped: %v -> %v", res.Levels[i-1].Q, res.Levels[i].Q)
		}
	}
}

func TestParallelBreakdownPopulated(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 53))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 500, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range append(refinePhases, perf.PhaseRefine, perf.PhaseReconstruction) {
		if res.Breakdown.Get(phase) <= 0 {
			t.Errorf("phase %q has no time", phase)
		}
	}
	if res.FirstLevel <= 0 || res.Duration < res.FirstLevel {
		t.Errorf("durations inconsistent: first=%v total=%v", res.FirstLevel, res.Duration)
	}
}

// refinePhases are the five labelled parts of REFINE.
var refinePhases = []string{perf.PhasePropagation, perf.PhaseFindBest, perf.PhaseThreshold, perf.PhaseUpdate, perf.PhaseComputeQ}

// TestParallelBreakdownSumsToRefine: the five inner phases are timed back to
// back, so on one rank they account for REFINE up to the loop's own
// bookkeeping — the time-and-bytes budget of ROADMAP item 2 has no
// unlabelled remainder to hide a cost in.
func TestParallelBreakdownSumsToRefine(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 53))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 4000, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, phase := range refinePhases {
		sum += res.Breakdown.Get(phase)
	}
	refine := res.Breakdown.Get(perf.PhaseRefine)
	if sum > refine || float64(sum) < 0.95*float64(refine) {
		t.Errorf("inner phases sum to %v, REFINE is %v: want within 5%% below\n%s", sum, refine, res.Breakdown)
	}
}

func TestParallelCommBytesAccounted(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 73))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(el, 500, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommBytes == 0 || res.CommRounds == 0 {
		t.Errorf("traffic counters empty: bytes=%d rounds=%d", res.CommBytes, res.CommRounds)
	}
	// Single rank still exchanges with itself; counters stay meaningful.
	solo, err := RunInProcess(el, 500, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.CommRounds == 0 {
		t.Error("solo rounds = 0")
	}
}

func TestParallelRandomGraphInvariantsQuick(t *testing.T) {
	// Property over random small multigraphs: the engine never errors,
	// the reported Q equals the membership's true modularity, levels
	// coarsen monotonically, and every vertex gets a community.
	f := func(raw []struct{ U, V, W uint8 }, ranksRaw uint8) bool {
		const n = 40
		el := make(graph.EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, graph.Edge{
				U: graph.V(r.U % n),
				V: graph.V(r.V % n),
				W: float64(r.W%5) + 0.5,
			})
		}
		ranks := int(ranksRaw%5) + 1
		res, err := RunInProcess(el, n, ranks, Options{CollectLevels: true})
		if err != nil {
			return false
		}
		if len(res.Membership) != n {
			return false
		}
		g := graph.Build(el, n)
		if math.Abs(metrics.Modularity(g, res.Membership)-res.Q) > 1e-9 {
			return false
		}
		for i := 1; i < len(res.Levels); i++ {
			if res.Levels[i].Communities > res.Levels[i-1].Communities {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
