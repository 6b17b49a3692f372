package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// The inner loop takes two shortcuts that must not move a bit: findBest
// skips vertices whose result is provably (0, own community), and computeQ
// reads a running Σin instead of scanning the rows. These tests run the
// engine with auditSkips armed, which re-scores every skipped vertex and
// re-scans Σin at every computeQ, and require that neither ever disagrees.
// The whole-graph sweep's skip is audited the same way (sweep_skip_test.go).

// skipAudit is auditSkips' implementation: it collects what the audited
// engines saw.
type skipAudit struct {
	skipped   atomic.Uint64 // rows findBest or sweepLevel skipped (and re-scored)
	rollbacks atomic.Uint64 // levels that ended in the rollback branch
	mu        sync.Mutex
	failures  []string
}

// rescore re-scores par-louvain's skipped vertex li, which must still hold
// (0, its own community).
func (a *skipAudit) rescore(s *engine, sc *gainScan, li int) {
	a.skipped.Add(1)
	g, to, _, _ := s.score(sc, li)
	c0 := s.commOf[li]
	if g != 0 || to != c0 || s.bestGain[li] != 0 || s.bestTo[li] != c0 {
		a.fail("rank %d skipped vertex %d of community %d (drift %g < horizon %g) holding (%g, %d); a fresh score gives (%g, %d)",
			s.part.Rank, s.part.GlobalID(li), c0, s.drift, s.skipUntil[li], s.bestGain[li], s.bestTo[li], g, to)
	}
}

// rescoreRow re-scores sweepLevel's skipped vertex u as relocate would score
// it — a best call the sweep's row count does not include — and u must not
// move.
func (a *skipAudit) rescoreRow(sc *gainScan, wg *graph.Graph, comm []graph.V, tot []float64, u graph.V) {
	a.skipped.Add(1)
	c0 := comm[u]
	if to, g, _, _, _ := sc.best(wg, comm, tot, u, tot[c0]-wg.Deg[u]); to != c0 && g > minMoveGain {
		a.fail("sweep skipped vertex %d of community %d at drift %g; a fresh best moves it to %d with gain %g",
			u, c0, sc.drift, to, g)
	}
	sc.rows--
}

func (a *skipAudit) rollback() { a.rollbacks.Add(1) }

func (a *skipAudit) fail(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failures = append(a.failures, fmt.Sprintf(format, args...))
}

// armSkipAudit switches the audit on for the rest of the test.
func armSkipAudit(t testing.TB) *skipAudit {
	t.Helper()
	a := &skipAudit{}
	auditSkips = a
	t.Cleanup(func() { auditSkips = nil })
	return a
}

// clean fails the test with the first disagreements the audit recorded, and
// forgets them so that the next label reports only its own.
func (a *skipAudit) clean(t testing.TB, label string) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, f := range a.failures {
		if i == 3 {
			t.Errorf("%s: ... and %d more", label, len(a.failures)-3)
			break
		}
		t.Errorf("%s: %s", label, f)
	}
	a.failures = nil
}

func skipLFR(t *testing.T, n int, mu float64, seed uint64) graph.EdgeList {
	t.Helper()
	el, _, err := gen.LFR(gen.DefaultLFR(n, mu, seed))
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// TestSkipExactAcrossConfigs drives whole runs — structured, weakly
// structured (levels that end in a rollback), hub-heavy, fractional-weight
// and warm-started — at ranks 1–4 × threads 1–2 over the mem transport and
// ranks 1–4 over sim, with the audit armed.
func TestSkipExactAcrossConfigs(t *testing.T) {
	lfr := skipLFR(t, 1000, 0.3, 19) // the golden-trace input
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The fractional-weight regression graph of TestParallelFractionalWeightsLevelShapes.
	frac := skipLFR(t, 600, 0.3, 77)
	for i := range frac {
		frac[i].W = 0.1 * float64(1+i%7)
	}
	cold, err := RunInProcess(lfr, 1000, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	// A warm start that still has work to do: every seventh vertex is put
	// back on its own.
	warm := append([]graph.V(nil), cold.Membership...)
	for v := 0; v < len(warm); v += 7 {
		warm[v] = graph.V(v)
	}
	cases := []struct {
		name     string
		el       graph.EdgeList
		n        int
		opt      Options
		rollback bool // some level must end in refineLevel's rollback branch
	}{
		{"lfr", lfr, 1000, Options{}, false},
		{"lfr-mu0.5", skipLFR(t, 1000, 0.5, 1), 1000, Options{}, true},
		{"rmat-hubs", rmat, 1 << 10, Options{}, true},
		{"fractional", frac, 600, Options{}, false},
		{"warm", lfr, 1000, Options{Warm: warm}, false},
	}
	ranksSet := []int{1, 2, 3, 4}
	if testing.Short() {
		ranksSet = []int{1, 2}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := armSkipAudit(t)
			for _, ranks := range ranksSet {
				for _, mode := range []string{"mem/t1", "mem/t2", "sim"} {
					label := fmt.Sprintf("ranks=%d/%s", ranks, mode)
					opt := c.opt
					var err error
					switch mode {
					case "mem/t1":
						_, err = RunInProcess(c.el, c.n, ranks, opt)
					case "mem/t2":
						opt.Threads = 2
						_, err = RunInProcess(c.el, c.n, ranks, opt)
					case "sim":
						_, err = RunSimulated(c.el, c.n, ranks, opt, comm.CostModel{})
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					a.clean(t, label)
				}
			}
			if a.skipped.Load() == 0 {
				t.Error("no vertex was ever skipped: the audit proved nothing")
			}
			if c.rollback && a.rollbacks.Load() == 0 {
				t.Error("no level ended in the rollback branch, so the re-scan after it went untested")
			}
		})
	}
}

// scriptedGroup is a rank group brought up to the start of level 0 whose
// inner iterations move exactly the vertices the test names.
type scriptedGroup struct {
	engines []*engine
}

func newScriptedGroup(t *testing.T, el graph.EdgeList, n, ranks, threads int) *scriptedGroup {
	t.Helper()
	parts := graph.SplitEdges(el, ranks)
	trs := comm.NewMemGroup(ranks)
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	g := &scriptedGroup{engines: make([]*engine, ranks)}
	for r := range g.engines {
		g.engines[r] = newEngine(comm.New(trs[r]), n, Options{Threads: threads}.withDefaults())
	}
	err := runRanks(g.engines, func(s *engine) error {
		if err := s.loadLocal(parts[s.part.Rank]); err != nil {
			return err
		}
		if _, err := s.levelInit(); err != nil {
			return err
		}
		return s.propagate()
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// iterate runs one inner iteration — sweep, update, move-log propagation,
// modularity — in which the sweep's verdicts are overruled: exactly the
// vertices in moves move, each to the community given.
func (g *scriptedGroup) iterate(t *testing.T, moves map[graph.V]graph.V) {
	t.Helper()
	g.iterateWatching(t, moves, func(*engine) {})
}

// iterateWatching is iterate with watch called on every rank between the
// update and the move-log propagation.
func (g *scriptedGroup) iterateWatching(t *testing.T, moves map[graph.V]graph.V, watch func(s *engine)) {
	t.Helper()
	err := runRanks(g.engines, func(s *engine) error {
		s.findBest()
		for li := 0; li < s.nLoc; li++ {
			s.bestGain[li], s.bestTo[li] = 0, s.commOf[li]
			if to, ok := moves[s.part.GlobalID(li)]; ok && s.active[li] {
				s.bestGain[li], s.bestTo[li] = 1, to
			}
		}
		if _, err := s.update(minMoveGain); err != nil {
			return err
		}
		watch(s)
		if err := s.propagateDelta(); err != nil {
			return err
		}
		_, err := s.computeQ()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkipCommunityEmptiedThenRevived: a community that empties leaves the
// reference set with a cached total of zero; when members arrive again the
// pull must measure its |ΔΣtot| against that cached zero — here the largest
// shift of the iteration — and not treat a re-entering community as new and
// exempt. The engine's own sweeps cannot stage this (an empty community is
// in no row, so no vertex can choose it), hence the scripted moves. Vertices
// 0–5 are a clique where the emptying and the revival happen; 6–9 are a
// second clique with a tail 9–10–11 whose members settle and stay marked.
func TestSkipCommunityEmptiedThenRevived(t *testing.T) {
	var el graph.EdgeList
	clique := func(lo, hi int) {
		for u := lo; u <= hi; u++ {
			for v := u + 1; v <= hi; v++ {
				el = append(el, graph.Edge{U: graph.V(u), V: graph.V(v), W: 1})
			}
		}
	}
	clique(0, 5)
	clique(6, 9)
	el = append(el, graph.Edge{U: 9, V: 10, W: 1}, graph.Edge{U: 10, V: 11, W: 1})
	const n = 12
	for _, ranks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", ranks, threads), func(t *testing.T) {
				a := armSkipAudit(t)
				g := newScriptedGroup(t, el, n, ranks, threads)
				// Vertex 0 leaves community 0 empty; the second clique merges.
				g.iterate(t, map[graph.V]graph.V{0: 1, 6: 9, 7: 9, 8: 9})
				for _, s := range g.engines {
					if s.refSeen[0] || s.totCache[0] != 0 || s.memCache[0] != 0 {
						t.Fatalf("rank %d: emptied community 0 still referenced (seen %v, Σtot %v, members %d)",
							s.part.Rank, s.refSeen[0], s.totCache[0], s.memCache[0])
					}
				}
				g.iterate(t, nil) // the settled vertices get their marks
				before := make([]float64, ranks)
				for r, s := range g.engines {
					before[r] = s.drift
				}
				// Vertices 2 and 3 (degree 5 each) revive community 0: its
				// Σtot goes 0 → 10 while the singletons they leave lose 5.
				g.iterate(t, map[graph.V]graph.V{2: 0, 3: 0})
				for r, s := range g.engines {
					if !s.refSeen[0] {
						continue // no row or vertex of this rank touches the clique
					}
					if s.totCache[0] != 10 || s.memCache[0] != 2 {
						t.Errorf("rank %d: revived community 0 cached as Σtot %v, %d members, want 10, 2", r, s.totCache[0], s.memCache[0])
					}
					if got := s.drift - before[r]; got != 10 {
						t.Errorf("rank %d: drift grew by %v over the revival, want 10 (community 0's shift from its cached 0)", r, got)
					}
				}
				if !g.engines[0].refSeen[0] {
					t.Error("rank 0 owns vertex 0's old neighbors yet does not reference the revived community")
				}
				g.iterate(t, nil)
				a.clean(t, "scripted")
				if a.skipped.Load() == 0 {
					t.Error("no vertex was skipped across the revival: the audit proved nothing")
				}
			})
		}
	}
}

// TestSkipSpentByNeighbourMoves: a neighbour's move does not clear a settled
// row's mark but spends its horizon, by exactly c·w·skipRate — c = 2 when the
// neighbour leaves the row owner's community, 0 when it joins it, 1 when it
// moves between two other communities of the row, and 1 when it enters one the
// row has not seen. Vertex 0 is the settled row: tied by weight 10 to the
// clique 1–5 and by weight 1 to 6, 7, 8, 10 and 11; community 0 is the clique
// and 6. A heavy self-loop at vertex 20 makes m large next to vertex 0's
// degree, so the horizon outlasts all four spends, and the sweep after each
// spend skips the row, which the audit re-scores.
func TestSkipSpentByNeighbourMoves(t *testing.T) {
	var el graph.EdgeList
	for u := 0; u <= 5; u++ {
		for v := u + 1; v <= 5; v++ {
			el = append(el, graph.Edge{U: graph.V(u), V: graph.V(v), W: 10})
		}
	}
	for _, v := range []graph.V{6, 7, 8, 10, 11} {
		el = append(el, graph.Edge{U: 0, V: v, W: 1})
	}
	el = append(el, graph.Edge{U: 12, V: 13, W: 1}, graph.Edge{U: 20, V: 20, W: 1000})
	const n, row, w = 21, 0, 1.0
	steps := []struct {
		name      string
		mover, to graph.V
		c         float64
		newToRow  bool
	}{
		{"leaves the row's community", 6, 12, 2, false},
		{"joins it", 8, 0, 0, false},
		{"moves between two other communities of the row", 7, 10, 1, false},
		{"enters a community new to the row", 11, 13, 1, true},
	}
	for _, ranks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", ranks, threads), func(t *testing.T) {
				a := armSkipAudit(t)
				g := newScriptedGroup(t, el, n, ranks, threads)
				g.iterate(t, map[graph.V]graph.V{1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0})
				g.iterate(t, nil) // vertex 0 is scored against its community and marked
				s := g.engines[0] // local index 0 is vertex 0
				for _, st := range steps {
					if !(s.drift < s.skipUntil[row]) {
						t.Fatalf("before the neighbour %s: row %d is not marked (drift %v, horizon %v)", st.name, row, s.drift, s.skipUntil[row])
					}
					if st.newToRow {
						for _, v := range s.adjSrc[s.adjOff[row]:s.adjOff[row+1]] {
							if s.ghost[v] == uint32(st.to) {
								t.Fatalf("community %d is in row %d already (vertex %d)", st.to, row, v)
							}
						}
					}
					skipped := a.skipped.Load()
					var before float64
					g.iterateWatching(t, map[graph.V]graph.V{st.mover: st.to}, func(s *engine) {
						if s.part.Rank == 0 {
							before = s.skipUntil[row]
						}
					})
					if a.skipped.Load() == skipped {
						t.Errorf("the sweep before the neighbour %s skipped nothing", st.name)
					}
					if want := before - st.c*w*s.skipRate[row]; s.skipUntil[row] != want {
						t.Errorf("the neighbour %s: horizon %v → %v, want %v (spend %v·w·m/k)", st.name, before, s.skipUntil[row], want, st.c)
					}
				}
				if !(s.drift < s.skipUntil[row]) {
					t.Fatalf("after four spends row %d is not marked (drift %v, horizon %v): the sweep after the last one proves nothing", row, s.drift, s.skipUntil[row])
				}
				g.iterate(t, nil)
				a.clean(t, "scripted")
			})
		}
	}
}

// TestParallelExactCounts is the perf gate noise cannot break: on the
// golden-trace input the engine's work is deterministic, so its rounds,
// bytes, inner iterations and scored rows are pinned by equality. A change
// that adds a collective, a byte per record or a sweep fails here on any
// host; a change that removes one updates the numbers and says so. Pinned
// with them, per rank at level 0: the entries of the in-edge CSR and the bytes
// of level storage the engine holds (levelBytes) — the first instalment of a
// bytes-per-rank count. Ranks 1, 2, 3, 4 and 8 make the same moves; only the
// bytes and the per-rank split change with the group. The tcp rows run the
// group over loopback TCP: the same counts, and the Q bits of the in-process
// group of that size.
func TestParallelExactCounts(t *testing.T) {
	el := skipLFR(t, 1000, 0.3, 19)
	// The invariant checker adds collectives of its own.
	forceInvariantChecks = false
	defer func() { forceInvariantChecks = true }()
	for _, want := range []struct {
		ranks                      int
		tcp                        bool
		rounds, bytes, iters, rows uint64
		entries, levelBytes        []int // per rank, in-process rows only
	}{
		{ranks: 1, rounds: 151, bytes: 238222, iters: 19, rows: 7971, entries: []int{14662}, levelBytes: []int{434552}},
		{ranks: 2, rounds: 151, bytes: 364328, iters: 19, rows: 7971, entries: []int{7292, 7370}, levelBytes: []int{220192, 222376}},
		{ranks: 4, rounds: 151, bytes: 667864, iters: 19, rows: 7971, entries: []int{3597, 3828, 3695, 3542}, levelBytes: []int{112732, 119200, 115476, 111192}},
		{ranks: 8, rounds: 151, bytes: 1448712, iters: 19, rows: 7971,
			entries:    []int{1818, 1987, 1927, 1728, 1779, 1841, 1768, 1814},
			levelBytes: []int{60920, 65652, 63972, 58400, 59828, 61564, 59520, 60808}},
		{ranks: 2, tcp: true, rounds: 151, bytes: 364328, iters: 19, rows: 7971},
		{ranks: 3, tcp: true, rounds: 151, bytes: 507118, iters: 19, rows: 7971},
	} {
		name := fmt.Sprintf("ranks=%d", want.ranks)
		res, err := RunInProcess(el, 1000, want.ranks, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.tcp {
			name += "/tcp"
			mem := res
			res = runTCPGroup(t, el, 1000, want.ranks, Options{})
			if math.Float64bits(res.Q) != math.Float64bits(mem.Q) || res.CommBytes != mem.CommBytes {
				t.Errorf("%s: Q %v in %d bytes, in process %v in %d bytes", name, res.Q, res.CommBytes, mem.Q, mem.CommBytes)
			}
		}
		var iters uint64
		for _, lv := range res.Levels {
			iters += uint64(lv.InnerIterations)
		}
		if res.CommRounds != want.rounds || res.CommBytes != want.bytes || iters != want.iters || res.RowsEvaluated != want.rows {
			t.Errorf("%s: rounds %d, bytes %d, inner iterations %d, rows evaluated %d; pinned %d, %d, %d, %d",
				name, res.CommRounds, res.CommBytes, iters, res.RowsEvaluated,
				want.rounds, want.bytes, want.iters, want.rows)
		}
		if want.tcp {
			continue
		}
		for r, s := range levelEngines(t, el, 1000, want.ranks) {
			if len(s.adjSrc) != want.entries[r] || s.levelBytes() != want.levelBytes[r] {
				t.Errorf("%s rank %d: %d level-0 entries in %d bytes of level storage; pinned %d, %d",
					name, r, len(s.adjSrc), s.levelBytes(), want.entries[r], want.levelBytes[r])
			}
		}
	}
}

// runTCPGroup runs a rank group over real loopback TCP and returns rank 0's
// result after checking all ranks agree on the final Q.
func runTCPGroup(t *testing.T, el graph.EdgeList, n, ranks int, opt Options) *Result {
	t.Helper()
	trs, err := tcpGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := runGroup(trs, graph.SplitEdges(el, ranks), n, opt)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < ranks; r++ {
		if results[r].Q != results[0].Q {
			t.Fatalf("rank %d Q %v != rank 0 Q %v", r, results[r].Q, results[0].Q)
		}
	}
	return results[0]
}

// levelBytes is what the engine holds for the level's graph: the pending
// records it owns, the sort's scratch, and the CSR with its fill cursor.
func (s *engine) levelBytes() int {
	b := 8*(cap(s.adjOff)+cap(s.cursor)) + 4*cap(s.adjSrc) + 8*cap(s.adjW)
	for t := range s.pend {
		b += 16*(cap(s.pend[t])+cap(s.bySrc[t])) + 8*cap(s.srcPos[t])
	}
	return b
}
