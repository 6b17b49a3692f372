package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// The inner loop takes three shortcuts that must not move a bit: findBest
// skips vertices whose result is provably (0, own community), the modularity
// reads a running Σin instead of scanning the rows, and each rank's totals
// come from the owners' pushes instead of a pull. These tests run the engine
// with auditSkips armed, which re-scores every skipped vertex, re-scans Σin
// at every modularity and holds every rank's pushed totals to the owners'
// after every push, and require that none ever disagrees.
// The whole-graph sweep's skip is audited the same way (sweep_skip_test.go).

// skipAudit is auditSkips' implementation: it collects what the audited
// engines saw.
type skipAudit struct {
	skipped   atomic.Uint64 // rows findBest or sweepLevel skipped (and re-scored)
	rollbacks atomic.Uint64 // levels that ended in the rollback branch
	pushes    atomic.Uint64 // pushTotals rounds whose subscriptions were audited
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

// subscriptions holds the push's state to the owners' after a pushTotals: in
// one round each rank sends (community, Σtot, members) of its cache for every
// community it references to the community's owner, which requires them equal
// to its own totals, bit for bit, and the senders to be exactly the ranks
// registered for the community.
func (a *skipAudit) subscriptions(s *engine) {
	a.pushes.Add(1)
	p := s.outPlanes()
	sent := make([]bool, s.n)
	for _, cc := range s.refs {
		if s.refSeen[cc] && !sent[cc] {
			sent[cc] = true
			b := p.To(s.part.Owner(graph.V(cc)))
			b.PutU32(cc)
			b.PutF64(s.totCache[cc])
			b.PutU32(s.memCache[cc])
		}
	}
	in, err := s.exchange(p)
	if err != nil {
		a.fail("rank %d: subscription audit round: %v", s.part.Rank, err)
		return
	}
	defer wire.ReleasePlanes(in)
	referencers := make([]int, s.nLoc)
	for src, plane := range in {
		r := wire.NewReader(plane)
		for r.More() {
			cc, tot, members := graph.V(r.U32()), r.F64(), r.U32()
			if r.Err() != nil {
				a.fail("rank %d: audit plane from rank %d: %v", s.part.Rank, src, r.Err())
				return
			}
			li := s.part.LocalIndex(cc)
			if math.Float64bits(tot) != math.Float64bits(s.totOwn[li]) || int64(members) != s.memOwn[li] || members == 0 {
				a.fail("rank %d caches community %d as (Σtot %v, %d members); its owner, rank %d, holds (%v, %d)",
					src, cc, tot, members, s.part.Rank, s.totOwn[li], s.memOwn[li])
			}
			if s.subs[li*s.subWords+src/64]&(1<<(src%64)) == 0 {
				a.fail("rank %d references community %d but is not registered with its owner, rank %d", src, cc, s.part.Rank)
			}
			referencers[li]++
		}
	}
	for li, n := range referencers {
		registered := 0
		for _, w := range s.subs[li*s.subWords : (li+1)*s.subWords] {
			registered += bits.OnesCount64(w)
		}
		if registered != n {
			a.fail("rank %d has %d ranks registered for community %d, which %d ranks reference",
				s.part.Rank, registered, s.part.GlobalID(li), n)
		}
	}
}

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
		// Seed 6: two of its levels end in rollback under the return rule
		// (seed 1's no longer does).
		{"lfr-mu0.5", skipLFR(t, 1000, 0.5, 6), 1000, Options{}, true},
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
	return newScriptedGroupOn(t, el, n, comm.NewMemGroup(ranks), threads)
}

// newScriptedGroupOn is newScriptedGroup over the given transports, which
// close with the test.
func newScriptedGroupOn(t *testing.T, el graph.EdgeList, n int, trs []comm.Transport, threads int) *scriptedGroup {
	t.Helper()
	ranks := len(trs)
	parts := graph.SplitEdges(el, ranks)
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
		_, err := s.propagate()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// iterate runs one inner iteration — sweep, update, move-log propagation,
// push — in which the sweep's verdicts are overruled: exactly the vertices in
// moves move, each to the community given.
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
		for t := range s.gainers {
			s.gainers[t] = s.gainers[t][:0]
		}
		for li := 0; li < s.nLoc; li++ {
			s.bestGain[li], s.bestTo[li] = 0, s.commOf[li]
			if to, ok := moves[s.part.GlobalID(li)]; ok && s.active[li] {
				s.bestGain[li], s.bestTo[li] = 1, to
				s.gainers[0] = append(s.gainers[0], li)
			}
		}
		s.update(minMoveGain)
		watch(s)
		if err := s.propagateDelta(); err != nil {
			return err
		}
		if _, err := s.pushTotals(); err != nil {
			return err
		}
		if a := auditSkips; a != nil {
			a.subscriptions(s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkipCommunityEmptiedThenRevived: a community that empties leaves the
// reference set with a cached total of zero; when members arrive again the
// push must measure its |ΔΣtot| against that cached zero — here the largest
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

// TestPushSubscriptions: in the inner loop a rank's cached totals come from
// the owners' pushes to the ranks registered for a community, not from a
// pull; the audit holds every rank's cache and every owner's subscriber list
// to the owners' state after each push. Three scripted cases at three ranks,
// over in-process and loopback TCP groups:
//
//   - a community that empties and revives within the level: its owner
//     forgets its subscribers as it empties, and the ranks that see the
//     revival are registered again by the movers;
//   - a rank whose first reference to a community comes from a neighbour's
//     move: the mover registers it with the owner on its behalf, so a later
//     change the rank is told nothing about still reaches its cache;
//   - a rollback: the full pull after it starts the subscriber lists over,
//     and the pushes that follow are measured against them.
func TestPushSubscriptions(t *testing.T) {
	clique := func(el graph.EdgeList, lo, hi int) graph.EdgeList {
		for u := lo; u <= hi; u++ {
			for v := u + 1; v <= hi; v++ {
				el = append(el, graph.Edge{U: graph.V(u), V: graph.V(v), W: 1})
			}
		}
		return el
	}
	// Two cliques, 0–5 and 6–9, with a tail 9–10–11 (as in
	// TestSkipCommunityEmptiedThenRevived).
	cliques := append(clique(clique(nil, 0, 5), 6, 9), graph.Edge{U: 9, V: 10, W: 1}, graph.Edge{U: 10, V: 11, W: 1})
	// The path 5–2–1–3–4. Rank 2 (owner of 2 and 5) references communities
	// 1, 2 and 5, not 3, whose owner is rank 0.
	path := graph.EdgeList{{U: 1, V: 2, W: 1}, {U: 1, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 2, V: 5, W: 1}}
	const ranks = 3
	// cached fails the test unless every rank that references community c
	// caches Σtot tot and the given member count for it.
	cached := func(t *testing.T, g *scriptedGroup, c graph.V, tot float64, members uint32) {
		t.Helper()
		for r, s := range g.engines {
			if s.refSeen[c] && (s.totCache[c] != tot || s.memCache[c] != members) {
				t.Errorf("rank %d caches community %d as (Σtot %v, %d members), want (%v, %d)", r, c, s.totCache[c], s.memCache[c], tot, members)
			}
		}
	}
	cases := []struct {
		name string
		el   graph.EdgeList
		n    int
		run  func(t *testing.T, g *scriptedGroup)
	}{
		{"emptied-then-revived", cliques, 12, func(t *testing.T, g *scriptedGroup) {
			g.iterate(t, map[graph.V]graph.V{0: 1, 6: 9, 7: 9, 8: 9}) // community 0 empties
			for r, s := range g.engines {
				if s.refSeen[0] {
					t.Errorf("rank %d still references the emptied community 0", r)
				}
			}
			if subs := g.engines[0].subs[0:g.engines[0].subWords]; subs[0] != 0 {
				t.Errorf("the owner keeps ranks %b registered for the emptied community 0", subs[0])
			}
			g.iterate(t, map[graph.V]graph.V{2: 0, 3: 0}) // and revives
			cached(t, g, 0, 10, 2)
			g.iterate(t, map[graph.V]graph.V{4: 0})
			cached(t, g, 0, 15, 3)
		}},
		{"registered-on-behalf", path, 6, func(t *testing.T, g *scriptedGroup) {
			r2 := g.engines[2]
			if r2.refSeen[3] {
				t.Fatal("rank 2 references community 3 before any move")
			}
			g.iterate(t, map[graph.V]graph.V{1: 3}) // rank 2 is told: vertex 1 is in 3
			if !r2.refSeen[3] || r2.totCache[3] != 4 || r2.memCache[3] != 2 {
				t.Errorf("rank 2 after vertex 1 joined community 3: seen %v, (Σtot %v, %d members), want true, (4, 2)", r2.refSeen[3], r2.totCache[3], r2.memCache[3])
			}
			g.iterate(t, map[graph.V]graph.V{4: 3}) // rank 2 is told nothing: no neighbour of its moved
			if r2.totCache[3] != 5 || r2.memCache[3] != 3 {
				t.Errorf("rank 2 after vertex 4 joined community 3: (Σtot %v, %d members), want (5, 3)", r2.totCache[3], r2.memCache[3])
			}
		}},
		{"rollback", cliques, 12, func(t *testing.T, g *scriptedGroup) {
			snap := func(s *engine) error { s.snapshot(0); return nil }
			if err := runRanks(g.engines, snap); err != nil {
				t.Fatal(err)
			}
			g.iterate(t, map[graph.V]graph.V{0: 1, 6: 9, 7: 9, 8: 9})
			g.iterate(t, map[graph.V]graph.V{2: 1})
			err := runRanks(g.engines, func(s *engine) error {
				s.restore()
				if _, err := s.propagate(); err != nil {
					return err
				}
				auditSkips.subscriptions(s)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			cached(t, g, 1, 5, 1)
			g.iterate(t, map[graph.V]graph.V{2: 0, 9: 10}) // into the revived community 0
			cached(t, g, 0, 10, 2)
			cached(t, g, 10, 6, 2)
			for r, s := range g.engines {
				if s.refSeen[9] {
					t.Errorf("rank %d still references community 9, which vertex 9 left empty", r)
				}
			}
		}},
	}
	modes := []struct {
		name string
		open openGroup
	}{{"mem", memGroup}, {"tcp", tcpGroup}}
	for _, c := range cases {
		for _, mode := range modes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				a := armSkipAudit(t)
				trs, err := mode.open(ranks)
				if err != nil {
					t.Fatal(err)
				}
				g := newScriptedGroupOn(t, c.el, c.n, trs, 1)
				pushes := a.pushes.Load()
				c.run(t, g)
				a.clean(t, "scripted")
				if a.pushes.Load() == pushes {
					t.Error("no push was audited")
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
// golden-trace input and on an R-MAT graph of scale 10, where the return rule
// breaks many two-cycles, the engine's work is deterministic, so its rounds,
// bytes, inner iterations and scored rows are pinned by equality. A change
// that adds a collective, a byte per record or a sweep fails here on any
// host; a change that removes one updates the numbers and says so. Pinned
// with them, per rank at level 0 of the golden-trace input: the entries of the
// in-edge CSR and the bytes of level storage the engine holds (levelBytes) —
// the first instalment of a bytes-per-rank count. Ranks 1, 2, 3, 4 and 8 make
// the same moves; only the bytes and the per-rank split change with the group.
// Q agrees to 1e-12 across group shapes (its last bits follow the order of the
// group's sums) and, on the R-MAT input, to the bit. The tcp rows run the group over loopback TCP:
// the same counts, and the Q bits of the in-process group of that size.
func TestParallelExactCounts(t *testing.T) {
	lfr := skipLFR(t, 1000, 0.3, 19)
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The invariant checker adds collectives of its own.
	forceInvariantChecks = false
	defer func() { forceInvariantChecks = true }()
	for _, in := range []struct {
		name  string
		el    graph.EdgeList
		n     int
		sameQ bool // the same Q bits at every group shape
		want  []exactCounts
	}{
		{"lfr1000", lfr, 1000, false, []exactCounts{
			{ranks: 1, rounds: 52, bytes: 214129, iters: 13, rows: 7478, entries: []int{14662}, levelBytes: []int{434552}},
			{ranks: 2, rounds: 52, bytes: 300634, iters: 13, rows: 7478, entries: []int{7292, 7370}, levelBytes: []int{220192, 222376}},
			{ranks: 4, rounds: 52, bytes: 470428, iters: 13, rows: 7478, entries: []int{3597, 3828, 3695, 3542}, levelBytes: []int{112732, 119200, 115476, 111192}},
			{ranks: 8, rounds: 52, bytes: 766699, iters: 13, rows: 7478,
				entries:    []int{1818, 1987, 1927, 1728, 1779, 1841, 1768, 1814},
				levelBytes: []int{60920, 65652, 63972, 58400, 59828, 61564, 59520, 60808}},
			{ranks: 2, tcp: true, rounds: 52, bytes: 300634, iters: 13, rows: 7478},
			{ranks: 3, tcp: true, rounds: 52, bytes: 385776, iters: 13, rows: 7478},
		}},
		{"rmat10", rmat, 1 << 10, true, []exactCounts{
			{ranks: 1, rounds: 165, bytes: 257174, iters: 47, rows: 12893},
			{ranks: 2, rounds: 165, bytes: 344458, iters: 47, rows: 12893},
			{ranks: 4, rounds: 165, bytes: 520946, iters: 47, rows: 12893},
			{ranks: 8, rounds: 165, bytes: 915194, iters: 47, rows: 12893},
			{ranks: 2, tcp: true, rounds: 165, bytes: 344458, iters: 47, rows: 12893},
		}},
	} {
		var q0 float64
		for i, want := range in.want {
			name := fmt.Sprintf("%s/ranks=%d", in.name, want.ranks)
			res, err := RunInProcess(in.el, in.n, want.ranks, Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i == 0 {
				q0 = res.Q
			} else if in.sameQ && math.Float64bits(res.Q) != math.Float64bits(q0) || math.Abs(res.Q-q0) > 1e-12 {
				t.Errorf("%s: Q %v, at ranks=%d %v", name, res.Q, in.want[0].ranks, q0)
			}
			if want.tcp {
				name += "/tcp"
				mem := res
				res = runTCPGroup(t, in.el, in.n, want.ranks, Options{})
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
			if want.entries == nil {
				continue
			}
			for r, s := range levelEngines(t, in.el, in.n, want.ranks) {
				if len(s.adjSrc) != want.entries[r] || s.levelBytes() != want.levelBytes[r] {
					t.Errorf("%s rank %d: %d level-0 entries in %d bytes of level storage; pinned %d, %d",
						name, r, len(s.adjSrc), s.levelBytes(), want.entries[r], want.levelBytes[r])
				}
			}
		}
	}
}

// exactCounts is one row of TestParallelExactCounts: a group shape and the
// work pinned for it.
type exactCounts struct {
	ranks                      int
	tcp                        bool
	rounds, bytes, iters, rows uint64
	entries, levelBytes        []int // per rank, in-process rows of the golden-trace input only
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
