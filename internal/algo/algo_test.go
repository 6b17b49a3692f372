package algo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
)

// allEngines is the canonical engine set this PR unifies; tests iterate it
// so a newly registered engine is exercised automatically.
var allEngines = []string{"ensemble", "leiden", "lns", "lpa", "par-louvain", "plm", "plp", "seq-louvain"}

func testGraph(t testing.TB) (graph.EdgeList, []graph.V, int) {
	t.Helper()
	el, truth, err := gen.LFR(gen.DefaultLFR(600, 0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	return el, truth, 600
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) != len(allEngines) {
		t.Fatalf("registry: %v, want %v", names, allEngines)
	}
	for i, want := range allEngines {
		if names[i] != want {
			t.Fatalf("registry: %v, want %v", names, allEngines)
		}
	}
	if len(Infos()) != len(names) {
		t.Errorf("Infos() and Names() disagree")
	}
	for _, info := range Infos() {
		if info.Name == "" || info.Description == "" {
			t.Errorf("engine %+v missing metadata", info)
		}
	}
}

func TestRegistryAliases(t *testing.T) {
	for alias, canonical := range map[string]string{"louvain": "par-louvain", "seq": "seq-louvain"} {
		d, err := Get(alias)
		if err != nil {
			t.Fatalf("Get(%q): %v", alias, err)
		}
		if d.Name() != canonical {
			t.Errorf("Get(%q) = %s, want %s", alias, d.Name(), canonical)
		}
	}
}

func TestRegistryUnknownEnumerates(t *testing.T) {
	_, err := Get("bogus")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range allEngines {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %q", err, name)
		}
	}
}

// TestEveryEngineEveryTransport is the tentpole guarantee: each registered
// engine runs on each in-process transport kind with the invariant checker
// forced on, and produces a valid, good-quality partition — on a real group
// (three ranks) and on a group of one.
func TestEveryEngineEveryTransport(t *testing.T) {
	el, truth, n := testGraph(t)
	for _, name := range allEngines {
		for _, transport := range []string{"mem", "sim", "chaos"} {
			for _, ranks := range []int{3, 1} {
				label := name + "/" + transport
				if ranks == 1 {
					label += "/one-rank"
				}
				t.Run(label, func(t *testing.T) {
					opt := Options{
						Ranks:           ranks,
						Transport:       transport,
						Seed:            7,
						CheckInvariants: true,
					}
					res, err := Run(context.Background(), name, el, n, opt)
					if err != nil {
						t.Fatal(err)
					}
					if res.Algo != name {
						t.Errorf("Algo = %q", res.Algo)
					}
					if len(res.Assignment) != n {
						t.Fatalf("assignment covers %d of %d", len(res.Assignment), n)
					}
					if res.NumEdges <= 0 || res.NumVertices != n {
						t.Errorf("input shape: %d vertices, %d edges", res.NumVertices, res.NumEdges)
					}
					if len(res.Levels) == 0 {
						t.Error("empty level trajectory")
					}
					if res.Q < 0.3 {
						t.Errorf("Q = %v, implausibly low for mu=0.3 LFR", res.Q)
					}
					// A whole-graph engine alone on mem is called directly and
					// exchanges nothing; everything else went through a group.
					d, _ := Get(name)
					direct := d.Info().Rank0 && ranks == 1 && transport == "mem"
					if silent := res.CommBytes == 0 && res.CommRounds == 0; silent != direct || (res.CommBytes == 0) != (res.CommRounds == 0) {
						t.Errorf("traffic accounting: %d bytes, %d rounds (direct call: %v)", res.CommBytes, res.CommRounds, direct)
					}
					sim, err := metrics.Compare(res.Assignment, truth)
					if err != nil {
						t.Fatal(err)
					}
					if sim.NMI < 0.55 {
						t.Errorf("NMI vs truth = %v", sim.NMI)
					}
				})
			}
		}
	}
}

// TestChaosTransportInjects: the "chaos" transport runs under its fixed fault
// schedule — the injected delays, retries and duplicate deliveries show in the
// run's registry — and still returns the mem run's result to the bit.
func TestChaosTransportInjects(t *testing.T) {
	el, _, n := testGraph(t)
	mem, err := Run(context.Background(), "par-louvain", el, n, Options{Ranks: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	chaos, err := Run(context.Background(), "par-louvain", el, n, Options{Ranks: 3, Seed: 7, Transport: "chaos", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var faults uint64
	for _, name := range []string{"chaos_delays_total", "chaos_retries_total", "chaos_dup_deliveries_total"} {
		faults += reg.Counter(name).Value()
	}
	if faults == 0 {
		t.Error("the chaos transport injected no delay, retry or duplicate delivery")
	}
	if !slices.Equal(chaos.Assignment, mem.Assignment) || math.Float64bits(chaos.Q) != math.Float64bits(mem.Q) {
		t.Errorf("chaos run: Q %v, mem run: Q %v; the assignments differ: %v", chaos.Q, mem.Q, !slices.Equal(chaos.Assignment, mem.Assignment))
	}
}

// TestEnginesMatchDirectCalls pins the registry wrappers to the underlying
// engines: routing through algo must not change results.
func TestEnginesMatchDirectCalls(t *testing.T) {
	el, _, n := testGraph(t)
	g := graph.Build(el, n)

	direct, err := core.RunInProcess(el, n, 3, core.Options{Seed: 7, CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Run(context.Background(), "par-louvain", el, n, Options{Ranks: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Q != wrapped.Q {
		t.Errorf("par-louvain Q: direct %v, via registry %v", direct.Q, wrapped.Q)
	}
	for v := range direct.Membership {
		if direct.Membership[v] != wrapped.Assignment[v] {
			t.Fatalf("par-louvain assignment differs at %d", v)
		}
	}

	seqDirect, err := core.Sequential(g, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seqWrapped, err := Run(context.Background(), "seq-louvain", el, n, Options{Ranks: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seqDirect.Q != seqWrapped.Q {
		t.Errorf("seq-louvain Q: direct %v, via registry %v", seqDirect.Q, seqWrapped.Q)
	}
	for v := range seqDirect.Membership {
		if seqDirect.Membership[v] != seqWrapped.Assignment[v] {
			t.Fatalf("seq-louvain assignment differs at %d", v)
		}
	}
	// The stop reasons cross the rank-0 outcome plane.
	if seqWrapped.Stop != seqDirect.Stop || seqWrapped.Stop == core.StopNone {
		t.Errorf("seq-louvain descent stop: direct %s, via registry %s", seqDirect.Stop, seqWrapped.Stop)
	}
	for i, lv := range seqDirect.Levels {
		if got := seqWrapped.Levels[i].Stop; got != lv.Stop || got == core.StopNone {
			t.Errorf("seq-louvain level %d stop: direct %s, via registry %s", i, lv.Stop, got)
		}
	}
	if wrapped.Stop != direct.Stop || wrapped.Levels[0].Stop != direct.Levels[0].Stop {
		t.Errorf("par-louvain stops: direct %s/%s, via registry %s/%s",
			direct.Stop, direct.Levels[0].Stop, wrapped.Stop, wrapped.Levels[0].Stop)
	}
}

func TestLeidenRefinesDisconnected(t *testing.T) {
	el, _, n := testGraph(t)
	res, err := Run(context.Background(), "leiden", el, n, Options{Seed: 3, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(el, n)
	// The defining property: no community in the hierarchy's final
	// assignment may be internally disconnected after a refinement pass on
	// the base graph... splitting the final partition must be a no-op only
	// if Leiden already aggregated on connected pieces. The final move
	// partition may still merge fragments, so assert the recorded split
	// counter exists and the trajectory is monotone instead.
	if _, ok := res.Extra["splits"]; !ok {
		t.Error("leiden result missing splits counter")
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Q < res.Levels[i-1].Q-1e-9 {
			t.Errorf("level %d Q decreased: %v -> %v", i, res.Levels[i-1].Q, res.Levels[i].Q)
		}
	}
	if q := metrics.Modularity(g, res.Assignment); q != res.Q {
		// distModularity tolerance already enforced; this is the exact
		// same-order recomputation and may differ in the last ulps only.
		if diff := q - res.Q; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Q mismatch: reported %v, recomputed %v", res.Q, q)
		}
	}
}

func TestLNSQualityAndMonotonicity(t *testing.T) {
	el, _, n := testGraph(t)
	res, err := Run(context.Background(), "lns", el, n, Options{Seed: 5, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.Sequential(graph.Build(el, n), core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q < seq.Q-0.05 {
		t.Errorf("LNS Q %v far below sequential Louvain %v", res.Q, seq.Q)
	}
}

func TestRank0ErrorPropagatesToAllRanks(t *testing.T) {
	el, _, n := testGraph(t)
	parts := graph.SplitEdges(el, 3)
	errs := make([]error, 3)
	boom := wholeGraph{info: Info{Name: "boom"}, compute: func(context.Context, *graph.Graph, Options) (*core.Result, map[string]float64, error) {
		return nil, nil, errors.New("synthetic failure")
	}}
	err := comm.RunGroup(context.Background(), comm.NewMemGroup(3), func(r int, c *comm.Comm) error {
		_, errs[r] = boom.runRank0(context.Background(), Graph{Comm: c, Local: parts[r], N: n}, Options{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
			t.Errorf("rank %d: err = %v, want the rank-0 failure", r, err)
		}
	}
}

// onMemGroup splits el over a fresh in-memory rank group, runs fn once per
// rank concurrently, and fails tb if any rank returns an error.
func onMemGroup(tb testing.TB, el graph.EdgeList, ranks int, fn func(r int, c *comm.Comm, local graph.EdgeList) error) {
	tb.Helper()
	parts := graph.SplitEdges(el, ranks)
	err := comm.RunGroup(context.Background(), comm.NewMemGroup(ranks), func(r int, c *comm.Comm) error {
		return fn(r, c, parts[r])
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestOutOfRangeIDIsAnError pins that an edge naming a vertex outside the
// declared id space comes back from every rank-0 engine as the same error on
// every rank — what par-louvain's loadLocal reports — and not as an index
// panic inside graph.Build on rank 0 with the other ranks left waiting.
func TestOutOfRangeIDIsAnError(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 7, W: 1}}
	const n = 4
	for _, name := range allEngines {
		d, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Info().Rank0 {
			continue
		}
		for _, ranks := range []int{1, 2} {
			errs := make([]error, ranks)
			onMemGroup(t, el, ranks, func(r int, c *comm.Comm, local graph.EdgeList) error {
				_, errs[r] = d.Detect(context.Background(), Graph{Comm: c, Local: local, N: n}, Options{})
				return nil
			})
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "edge (1,7) outside vertex space 4") {
					t.Errorf("%s, %d ranks, rank %d: err = %v, want the out-of-range edge", name, ranks, r, err)
				}
			}
		}
	}
}

// TestNonFiniteWeightIsAnError pins that a NaN or ±Inf weight reaches no
// engine: every registered engine returns an error naming the edge on every
// rank, where it used to run on with an accumulator that is never zero again.
// A rank-0 engine learns of it from rank 0's status word; par-louvain and lpa
// ranks each check the edges they were given, so the bad edge joins vertices
// with different owners at two ranks and both see it.
func TestNonFiniteWeightIsAnError(t *testing.T) {
	const n = 4
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: w}, {U: 2, V: 3, W: 1}}
		for _, name := range allEngines {
			d, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ranks := range []int{1, 2} {
				errs := make([]error, ranks)
				onMemGroup(t, el, ranks, func(r int, c *comm.Comm, local graph.EdgeList) error {
					_, errs[r] = d.Detect(context.Background(), Graph{Comm: c, Local: local, N: n}, Options{})
					return nil
				})
				for r, err := range errs {
					if err == nil || !strings.Contains(err.Error(), "has non-finite weight") ||
						!(strings.Contains(err.Error(), "edge (1,2)") || strings.Contains(err.Error(), "edge (2,1)")) {
						t.Errorf("%s, weight %v, %d ranks, rank %d: err = %v, want the non-finite edge", name, w, ranks, r, err)
					}
				}
			}
		}
	}
}

// TestBadWarmStartIsAnError pins that a warm start of the wrong length or
// with a label outside the id space comes back from every modularity engine
// as an error on the caller's goroutine, never as a panic on a rank's.
func TestBadWarmStartIsAnError(t *testing.T) {
	el, _, n := testGraph(t)
	short := make([]graph.V, n-1)
	outOfRange := make([]graph.V, n)
	outOfRange[n/2] = graph.V(n)
	for _, name := range []string{"seq-louvain", "plm", "leiden", "lns", "par-louvain"} {
		for what, warm := range map[string][]graph.V{"short": short, "out of range": outOfRange} {
			_, err := Run(context.Background(), name, el, n, Options{Ranks: 2, Warm: warm})
			if err == nil || !strings.Contains(err.Error(), "warm-start") {
				t.Errorf("%s, %s warm start: err = %v, want a warm-start error", name, what, err)
			}
		}
	}
}

func TestInvariantCheckerCatchesBadResult(t *testing.T) {
	el, _, n := testGraph(t)
	trs := comm.NewMemGroup(1)
	defer trs[0].Close()
	g := Graph{Comm: comm.New(trs[0]), Local: graph.SplitEdges(el, 1)[0], N: n}

	// A wrong Q must be rejected by the recomputation check.
	bad := &Result{Algo: "fake", Assignment: make([]graph.V, n), Q: 0.999}
	_, err := finish(g, Options{CheckInvariants: true}, Info{Name: "fake"}, bad)
	if !errors.Is(err, core.ErrInvariant) {
		t.Errorf("wrong Q passed the checker: %v", err)
	}

	// A short assignment must be rejected by the shape check.
	short := &Result{Algo: "fake", Assignment: make([]graph.V, n-1)}
	_, err = finish(g, Options{CheckInvariants: true}, Info{Name: "fake"}, short)
	if !errors.Is(err, core.ErrInvariant) {
		t.Errorf("short assignment passed the checker: %v", err)
	}

	// A decreasing trajectory must be rejected for MonotoneQ engines.
	decl := &Result{Algo: "fake", Assignment: make([]graph.V, n),
		Levels: []LevelStat{{Q: 0.5}, {Q: 0.3}}}
	decl.Q, err = distModularity(g.Comm, g.Local, n, decl.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	_, err = finish(g, Options{CheckInvariants: true}, Info{Name: "fake", MonotoneQ: true}, decl)
	if !errors.Is(err, core.ErrInvariant) {
		t.Errorf("decreasing trajectory passed the checker: %v", err)
	}
}

func TestDistModularityMatchesSequential(t *testing.T) {
	el, _, n := testGraph(t)
	g := graph.Build(el, n)
	seq, err := core.Sequential(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Modularity(g, seq.Membership)

	for _, ranks := range []int{1, 3, 4} {
		parts := graph.SplitEdges(el, ranks)
		got := make([]float64, ranks)
		err := comm.RunGroup(context.Background(), comm.NewMemGroup(ranks), func(r int, c *comm.Comm) (err error) {
			got[r], err = distModularity(c, parts[r], n, seq.Membership)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, q := range got {
			if diff := q - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("ranks=%d rank %d: distModularity %v, want %v", ranks, r, q, want)
			}
		}
	}
}

func TestRunUnknownTransport(t *testing.T) {
	el, _, n := testGraph(t)
	_, err := Run(context.Background(), "louvain", el, n, Options{Transport: "carrier-pigeon"})
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("err = %v", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	el, _, n := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, "seq-louvain", el, n, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, "par-louvain", el, n, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestResultCommunities(t *testing.T) {
	r := &Result{Assignment: []graph.V{0, 1, 0, 2, 1}}
	if got := r.Communities(); got != 3 {
		t.Errorf("Communities() = %d", got)
	}
}

// BenchmarkRank0Ingest times what surrounds a whole-graph engine by running
// one that does nothing: "direct" is check + graph.Build, the shape of every
// DetectAlgo("seq-louvain" | "plm" | ...) call at one rank over mem; the
// ranks rows are the harness — split, gather, decode, graph.Build, broadcast
// — which a group of one still pays over sim or chaos. `-short` shrinks the
// input.
func BenchmarkRank0Ingest(b *testing.B) {
	scale := 14
	if testing.Short() {
		scale = 10
	}
	el, err := gen.RMAT(gen.DefaultRMAT(scale, 11))
	if err != nil {
		b.Fatal(err)
	}
	n := el.NumVertices()
	noop := wholeGraph{info: Info{Name: "noop"}, compute: func(context.Context, *graph.Graph, Options) (*core.Result, map[string]float64, error) {
		return &core.Result{}, nil, nil
	}}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := noop.direct(context.Background(), el, n, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(el)), "ns/edge")
	})
	for _, ranks := range []int{1, 2} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				onMemGroup(b, el, ranks, func(r int, c *comm.Comm, local graph.EdgeList) error {
					_, err := noop.runRank0(context.Background(), Graph{Comm: c, Local: local, N: n}, Options{})
					return err
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(el)), "ns/edge")
		})
	}
}
