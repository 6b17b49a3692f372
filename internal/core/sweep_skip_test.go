package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
)

// sweepLevel skips rows whose answer is provably "stay". These tests hold it
// to the sweep that scores every row, kept below as refSweepLevel: with
// auditSkips armed every skipped row is re-scored and must not move, and
// whole runs must match the oracle's hierarchy to the bit.

// refSweepLevel is sweepLevel as it was before it skipped anything: every
// sweep scores every vertex of non-zero degree.
func refSweepLevel(wg *graph.Graph, opt Options, level int, comm []graph.V, tot []float64) ([]int, int, uint64, Stop) {
	order := levelOrder(wg, opt, level)
	scan := newGainScan(wg.N)
	var movesPerIter []int
	stop := StopMaxInner
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		for _, u := range order {
			if ok, _ := scan.relocate(wg, comm, tot, graph.V(u)); ok {
				moved++
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if moved == 0 {
			stop = StopConverged
			break
		}
	}
	return movesPerIter, len(movesPerIter), scan.rows, stop
}

// sweepEngines are the two engines that run sweepLevel, each with its
// full-sweep oracle.
var sweepEngines = []struct {
	name   string
	refine bool
}{{"seq-louvain", false}, {"leiden", true}}

// sweepOrders are the four -order values plus the seeded shuffle the default
// order becomes when a seed is set.
var sweepOrders = []struct {
	name string
	opt  Options
}{
	{"natural", Options{Order: movesched.OrderNatural}},
	{"shuffle", Options{Order: movesched.OrderShuffle}},
	{"degree-asc", Options{Order: movesched.OrderDegreeAsc}},
	{"degree-desc", Options{Order: movesched.OrderDegreeDesc}},
	{"seeded", Options{Seed: 9}},
}

type sweepCase struct {
	name string
	g    *graph.Graph
	warm []graph.V
}

// sweepCases are structured and weakly structured LFR graphs, a hub-heavy
// R-MAT graph, the fractional-weight graph of TestSkipExactAcrossConfigs, a
// list with some negative-weight edges, and a warm start that still has work
// to do.
func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	lfr := skipLFR(t, 1000, 0.3, 19)
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	frac := skipLFR(t, 600, 0.3, 77)
	for i := range frac {
		frac[i].W = 0.1 * float64(1+i%7)
	}
	neg := append(graph.EdgeList(nil), lfr...)
	for i := 0; i < len(neg); i += 9 {
		neg[i].W = -1
	}
	g := graph.Build(lfr, 1000)
	warm := append([]graph.V(nil), must(t)(Sequential(g, Options{})).Membership...)
	for v := 0; v < len(warm); v += 7 {
		warm[v] = graph.V(v)
	}
	return []sweepCase{
		{"lfr", g, nil},
		{"lfr-mu0.5", graph.Build(skipLFR(t, 1000, 0.5, 1), 1000), nil},
		{"rmat-hubs", graph.Build(rmat, 1<<10), nil},
		{"fractional", graph.Build(frac, 600), nil},
		{"negative", graph.Build(neg, 1000), nil},
		{"warm", g, warm},
	}
}

// TestSweepSkipExact runs seq-louvain and leiden over every case and order
// with the audit armed: every row the sweep skips is scored afresh and must
// not move, and each case must skip some rows.
func TestSweepSkipExact(t *testing.T) {
	for _, c := range sweepCases(t) {
		t.Run(c.name, func(t *testing.T) {
			a := armSkipAudit(t)
			for _, e := range sweepEngines {
				for _, o := range sweepOrders {
					opt := o.opt
					opt.Warm = c.warm
					must(t)(hierarchy(c.g, opt, sweepLevel, e.refine))
					a.clean(t, e.name+"/"+o.name)
				}
			}
			if a.skipped.Load() == 0 {
				t.Error("no row was ever skipped: the audit proved nothing")
			}
		})
	}
}

// sameFloat compares bit patterns, any NaN equal to any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameHierarchy reports the first difference between a skipping run and the
// oracle's: Q and every level's Q as bits, the level shapes, the moves of
// every sweep, the Leiden splits and the membership.
func sameHierarchy(got, want *Result) error {
	if !sameFloat(got.Q, want.Q) || len(got.Levels) != len(want.Levels) || got.LeidenSplits != want.LeidenSplits {
		return fmt.Errorf("Q %v in %d levels with %d splits, the full sweep gives %v in %d levels with %d splits",
			got.Q, len(got.Levels), got.LeidenSplits, want.Q, len(want.Levels), want.LeidenSplits)
	}
	for i, lv := range got.Levels {
		w := want.Levels[i]
		if !sameFloat(lv.Q, w.Q) || lv.Vertices != w.Vertices || lv.Communities != w.Communities ||
			lv.InnerIterations != w.InnerIterations || fmt.Sprint(lv.MovesPerIter) != fmt.Sprint(w.MovesPerIter) {
			return fmt.Errorf("level %d: Q %v, %d → %d vertices, moves %v; the full sweep gives %v, %d → %d, %v",
				i, lv.Q, lv.Vertices, lv.Communities, lv.MovesPerIter, w.Q, w.Vertices, w.Communities, w.MovesPerIter)
		}
	}
	for v := range got.Membership {
		if got.Membership[v] != want.Membership[v] {
			return fmt.Errorf("vertex %d ends in community %d, the full sweep puts it in %d", v, got.Membership[v], want.Membership[v])
		}
	}
	return nil
}

// TestSweepMatchesFullSweep holds whole seq-louvain and leiden runs to the
// full-sweep oracle: the cases and orders of TestSweepSkipExact, and random
// graphs whose weights are sevenths, uniform, or spread over twelve orders of
// magnitude, in natural and seeded-shuffle order. The skipping sweep must
// also score fewer rows.
func TestSweepMatchesFullSweep(t *testing.T) {
	type run struct {
		name string
		g    *graph.Graph
		opt  Options
	}
	var runs []run
	for _, c := range sweepCases(t) {
		for _, o := range sweepOrders {
			opt := o.opt
			opt.Warm = c.warm
			runs = append(runs, run{c.name + "/" + o.name, c.g, opt})
		}
	}
	rng := rand.New(rand.NewSource(26))
	weights := []struct {
		name string
		draw func() float64
	}{
		{"sevenths", func() float64 { return float64(1+rng.Intn(13)) / 7 }},
		{"uniform", func() float64 { return rng.Float64() }},
		{"spread", func() float64 { return math.Pow(10, 12*rng.Float64()-6) }},
	}
	for _, w := range weights {
		for i := 0; i < 5; i++ {
			n := 200 + rng.Intn(300)
			g := randomWeighted(rng, n, 6*n, w.draw)
			for _, o := range []Options{{}, {Order: movesched.OrderShuffle, Seed: uint64(i + 1)}} {
				runs = append(runs, run{fmt.Sprintf("%s-%d/%v", w.name, i, o.Order), g, o})
			}
		}
	}
	for _, r := range runs {
		for _, e := range sweepEngines {
			got := must(t)(hierarchy(r.g, r.opt, sweepLevel, e.refine))
			want := must(t)(hierarchy(r.g, r.opt, refSweepLevel, e.refine))
			if err := sameHierarchy(got, want); err != nil {
				t.Errorf("%s %s: %v", e.name, r.name, err)
			}
			if got.RowsEvaluated >= want.RowsEvaluated {
				t.Errorf("%s %s: scored %d rows, the full sweep %d", e.name, r.name, got.RowsEvaluated, want.RowsEvaluated)
			}
		}
		// The level's totals, which no Q reads, keep every bit as well.
		tot, refTot := levelZero(r.g, r.opt, sweepLevel), levelZero(r.g, r.opt, refSweepLevel)
		for c := range tot {
			if !sameFloat(tot[c], refTot[c]) {
				t.Errorf("%s: level 0 ends with tot[%d] = %v, the full sweep's is %v", r.name, c, tot[c], refTot[c])
				break
			}
		}
	}
}

// levelZero runs move as hierarchy runs level 0 and returns the totals the
// level ends with.
func levelZero(g *graph.Graph, opt Options, move moveFn) []float64 {
	comm, tot := make([]graph.V, g.N), make([]float64, g.N)
	for u := range comm {
		comm[u] = graph.V(u)
	}
	copy(comm, opt.Warm)
	for u, c := range comm {
		tot[c] += g.Deg[u]
	}
	move(g, opt.withDefaults(), 0, comm, tot)
	return tot
}

// TestHierarchyExactCounts pins the rows the whole-graph engines score
// (Result.RowsEvaluated) on the two inputs of TestHierarchyGolden, cold and in
// natural order, by equality: the count a change to the move phases has to
// name before it is made. The full sweep's count is pinned with them.
func TestHierarchyExactCounts(t *testing.T) {
	lfr, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 21))
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 21))
	if err != nil {
		t.Fatal(err)
	}
	fullSweep := func(g *graph.Graph, opt Options) (*Result, error) { return hierarchy(g, opt, refSweepLevel, false) }
	for _, want := range []struct {
		graph string
		g     *graph.Graph
		rows  map[string]uint64
	}{
		{"lfr2000", graph.Build(lfr, 2000), map[string]uint64{"full-sweep": 18029, "seq-louvain": 9806, "leiden": 9806, "plm": 9421, "lns": 9094}},
		{"rmat10", graph.Build(rmat, 1<<10), map[string]uint64{"full-sweep": 4647, "seq-louvain": 3066, "leiden": 3066, "plm": 3708, "lns": 2776}},
	} {
		for _, e := range []struct {
			name string
			run  func(*graph.Graph, Options) (*Result, error)
		}{{"full-sweep", fullSweep}, {"seq-louvain", Sequential}, {"leiden", Leiden}, {"plm", PLM}, {"lns", LNS}} {
			for _, threads := range []int{1, 2} {
				if got := must(t)(e.run(want.g, Options{Threads: threads})).RowsEvaluated; got != want.rows[e.name] {
					t.Errorf("%s on %s, %d threads: %d rows scored, pinned %d", e.name, want.graph, threads, got, want.rows[e.name])
				}
			}
		}
	}
}

// FuzzSweepSkip decodes the payload as a list over at most 64 vertices — a
// header byte picks the order, then (u, v, kind, x) records: small integers
// (zero and negative included, so totals can cancel to zero), sevenths,
// powers of two over ±2^±60, and NaN, ±Inf, ±0, the extremes of float64 —
// self-loops and repeated pairs come free. seq-louvain and leiden must give
// the full sweep's hierarchy, compared bitwise, any NaN equal to any NaN.
func FuzzSweepSkip(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 1, 2, 0, 3, 2, 0, 0, 3, 3, 4, 0, 3, 4, 5, 0, 3, 5, 3, 0, 3})
	f.Add([]byte{1, 0, 1, 1, 8, 1, 2, 1, 9, 2, 0, 1, 10, 0, 0, 1, 20, 3, 4, 0, 1, 4, 5, 1, 3})
	f.Add([]byte{2, 0, 1, 0, 4, 1, 2, 0, 1, 0, 2, 0, 1, 2, 3, 2, 7, 3, 4, 0, 4, 4, 3, 3, 2})
	f.Add([]byte{3, 0, 1, 3, 0, 1, 2, 0, 3, 2, 3, 3, 1})
	f.Add([]byte{4, 5, 6, 0, 5, 6, 7, 0, 5, 7, 5, 0, 5, 8, 9, 0, 0, 9, 8, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300}
		o := sweepOrders[int(data[0])%len(sweepOrders)].opt
		var el graph.EdgeList
		for i := 1; i+3 < len(data) && len(el) < 512; i += 4 {
			x := data[i+3]
			var w float64
			switch data[i+2] % 4 {
			case 0:
				w = float64(int(x%8) - 2)
			case 1:
				w = float64(int(x%15)-3) / 7
			case 2:
				w = math.Ldexp(float64(1+int(x>>6)), int(x&63)-31) * float64(1-2*int(data[i+2]>>7))
			default:
				w = specials[int(x)%len(specials)]
			}
			el = append(el, graph.Edge{U: graph.V(data[i] % 64), V: graph.V(data[i+1] % 64), W: w})
		}
		g := graph.Build(el, 64)
		for _, e := range sweepEngines {
			got := must(t)(hierarchy(g, o, sweepLevel, e.refine))
			want := must(t)(hierarchy(g, o, refSweepLevel, e.refine))
			if err := sameHierarchy(got, want); err != nil {
				for _, ed := range el {
					t.Logf("edge (%d,%d) %v [%016x]", ed.U, ed.V, ed.W, math.Float64bits(ed.W))
				}
				t.Fatalf("%s: %v", e.name, err)
			}
		}
	})
}

// BenchmarkSweepLevel is one level-0 move phase on the two inputs of
// BenchmarkCondense, the skipping sweep next to the full-sweep oracle;
// rows/op is the rows scored, ns/row the time per scored row.
func BenchmarkSweepLevel(b *testing.B) {
	for name, g := range levelLoopInputs(b) {
		for _, k := range []struct {
			name string
			move moveFn
		}{{"", sweepLevel}, {"/full-sweep", refSweepLevel}} {
			b.Run(name+k.name, func(b *testing.B) {
				opt := Options{}.withDefaults()
				comm, tot := make([]graph.V, g.N), make([]float64, g.N)
				var rows uint64
				for i := 0; i < b.N; i++ {
					for u := range comm {
						comm[u], tot[u] = graph.V(u), g.Deg[u]
					}
					_, _, r, _ := k.move(g, opt, 0, comm, tot)
					rows += r
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			})
		}
	}
}
