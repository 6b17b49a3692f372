package core

import (
	"fmt"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
)

// The out-row tests drive the handshake and the two propagation builds
// directly — engines brought up to levelInit, communities assigned by fiat —
// and compare every row against a brute-force oracle computed from the raw
// entry list: w_{v→c} = Σ w(v→u) over entries whose head u is labelled c.
// Weights are dyadic, so the sums are exact in any order.

// rowCase is one directed entry list (U→V, W) over n vertices, exactly as a
// rank group is handed it: each entry lives at owner(V), nothing is
// mirrored, a self-loop appears once.
type rowCase struct {
	name    string
	n       int
	entries graph.EdgeList
}

func both(es ...graph.Edge) graph.EdgeList {
	var out graph.EdgeList
	for _, e := range es {
		out = append(out, e)
		if e.U != e.V {
			out = append(out, graph.Edge{U: e.V, V: e.U, W: e.W})
		}
	}
	return out
}

func rowCases() []rowCase {
	hub := graph.EdgeList{}
	for v := 1; v <= 1200; v++ {
		hub = append(hub, both(graph.Edge{U: 0, V: graph.V(v), W: 1})...)
		if v%5 == 0 {
			hub = append(hub, both(graph.Edge{U: graph.V(v), V: graph.V(v - 1), W: 0.5})...)
		}
	}
	return []rowCase{
		{"triangle+tail", 5, both(
			graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 2}, graph.Edge{U: 0, V: 2, W: 0.5}, graph.Edge{U: 2, V: 3, W: 4},
		)},
		{"self-loops", 6, both(
			graph.Edge{U: 0, V: 0, W: 1.5}, graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 1, W: 0.25}, graph.Edge{U: 4, V: 5, W: 2}, graph.Edge{U: 5, V: 5, W: 1},
		)},
		{"multi-edges", 4, both(
			graph.Edge{U: 0, V: 1, W: 0.5}, graph.Edge{U: 0, V: 1, W: 1.25}, graph.Edge{U: 1, V: 2, W: 1}, graph.Edge{U: 2, V: 1, W: 3}, graph.Edge{U: 3, V: 3, W: 1}, graph.Edge{U: 3, V: 3, W: 1},
		)},
		{"isolated", 12, both(
			graph.Edge{U: 2, V: 9, W: 1}, graph.Edge{U: 9, V: 4, W: 2},
		)},
		{"directed", 7, graph.EdgeList{
			{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 3, V: 0, W: 0.5}, {U: 4, V: 4, W: 1}, {U: 5, V: 6, W: 1}, {U: 5, V: 1, W: 0.25}, {U: 0, V: 1, W: 0.25},
		}},
		{"hub", 1201, hub},
	}
}

// rowLabels are two arbitrary assignments; going from a to b moves every
// third vertex, the hub of the hub case included.
func rowLabels(n int) (a, b func(graph.V) graph.V) {
	a = func(v graph.V) graph.V { return (v*7 + 3) % graph.V(n) }
	b = func(v graph.V) graph.V {
		if v%3 == 0 {
			return (v + 1) % graph.V(n)
		}
		return a(v)
	}
	return a, b
}

// rowOracle returns w_{v→c} for every v, from the raw entries: duplicates
// add up, a self-loop counts twice (DESIGN.md §5).
func rowOracle(c rowCase, label func(graph.V) graph.V) []map[graph.V]float64 {
	want := make([]map[graph.V]float64, c.n)
	for _, e := range c.entries {
		if want[e.U] == nil {
			want[e.U] = map[graph.V]float64{}
		}
		w := e.W
		if e.U == e.V {
			w *= 2
		}
		want[e.U][label(e.V)] += w
	}
	return want
}

// runRanks runs fn once per engine, concurrently, as a collective step.
func runRanks(engines []*engine, fn func(s *engine) error) error {
	var g par.Group
	for _, s := range engines {
		s := s
		g.Go(func() error { return fn(s) })
	}
	return g.Wait()
}

// checkRows drives one case through handshake → full propagation under
// labels a → move-log propagation to labels b, checking every row against
// the oracle after each propagation, then sweeping.
func checkRows(c rowCase, ranks, threads, chunk int) error {
	part := graph.Partition{Size: ranks}
	parts := make([]graph.EdgeList, ranks)
	for _, e := range c.entries {
		parts[part.Owner(e.V)] = append(parts[part.Owner(e.V)], e)
	}
	trs := comm.NewMemGroup(ranks)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	engines := make([]*engine, ranks)
	for r := range engines {
		opt := Options{Threads: threads, StreamChunk: chunk}.withDefaults()
		engines[r] = newEngine(comm.New(trs[r]), c.n, opt)
	}
	a, b := rowLabels(c.n)

	relabel := func(s *engine, label func(graph.V) graph.V) {
		s.moveLog = s.moveLog[:0]
		for li := 0; li < s.nLoc; li++ {
			v := s.part.GlobalID(li)
			if !s.active[li] || label(v) == s.commOf[li] {
				continue
			}
			s.relocate(li, label(v))
		}
	}
	// sweep runs findBest and holds the running Σin to a fresh scan. With
	// auditSkips armed (both callers arm it) the second sweep re-scores every
	// vertex the marks of the first let it skip — no totals moved in between,
	// so any mark that survived a changed row or a moved vertex shows up as a
	// disagreement.
	sweep := func(s *engine) error {
		if s.m > 0 {
			s.findBest()
		}
		return s.checkIntra()
	}
	compare := func(step string, label func(graph.V) graph.V) error {
		want := rowOracle(c, label)
		slots := 0
		for _, s := range engines {
			slots += len(s.outComm)
			for li := 0; li < s.nLoc; li++ {
				v := s.part.GlobalID(li)
				if int(v) >= c.n {
					break
				}
				got := map[graph.V]float64{}
				for _, cc := range s.gatherRow(s.scan[0], li) {
					got[cc] = s.scan[0].w2c[cc]
				}
				s.scan[0].dropRow()
				if len(got) != len(want[v]) {
					return fmt.Errorf("%s: row of vertex %d = %v, want %v", step, v, got, want[v])
				}
				for cc, w := range want[v] {
					if g, ok := got[cc]; !ok || g != w {
						return fmt.Errorf("%s: row of vertex %d = %v, want %v", step, v, got, want[v])
					}
				}
			}
		}
		distinct := map[uint64]struct{}{}
		for _, e := range c.entries {
			distinct[hashfn.Pack32(e.U, e.V)] = struct{}{}
		}
		if slots != len(distinct) {
			return fmt.Errorf("%s: %d slots for %d distinct (u→v) entries", step, slots, len(distinct))
		}
		return nil
	}

	err := runRanks(engines, func(s *engine) error {
		if err := s.loadLocal(parts[s.part.Rank]); err != nil {
			return err
		}
		if _, err := s.levelInit(); err != nil {
			return err
		}
		relabel(s, a)
		if err := s.propagate(); err != nil {
			return err
		}
		return sweep(s)
	})
	if err != nil {
		return err
	}
	if err := compare("full", a); err != nil {
		return err
	}
	err = runRanks(engines, func(s *engine) error {
		relabel(s, b)
		if err := s.propagateDelta(); err != nil {
			return err
		}
		return sweep(s)
	})
	if err != nil {
		return err
	}
	return compare("move-log", b)
}

func TestOutRowsMatchOracle(t *testing.T) {
	for _, c := range rowCases() {
		for _, ranks := range []int{1, 2, 3, 4} {
			for _, threads := range []int{1, 2} {
				for _, mode := range []struct {
					name  string
					chunk int
				}{{"bulk", -1}, {"stream", 64}} {
					name := fmt.Sprintf("%s/ranks=%d/threads=%d/%s", c.name, ranks, threads, mode.name)
					t.Run(name, func(t *testing.T) {
						a := armSkipAudit(t)
						if err := checkRows(c, ranks, threads, mode.chunk); err != nil {
							t.Fatal(err)
						}
						a.clean(t, name)
					})
				}
			}
		}
	}
}

// FuzzOutRows reads the payload as (u, v, w) byte triples over at most 48
// vertices — duplicates, self-loops, one-directional entries and zero
// weights all occur — and holds the rows to the oracle, the running Σin to a
// scan and the sweep's skips to a re-score, at a fuzzed rank count, thread
// count and exchange mode.
func FuzzOutRows(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 0, 4, 1, 2, 8, 2, 1, 8}, uint8(2), uint8(1), false)
	f.Add([]byte{0, 0, 6, 0, 1, 4, 1, 1, 1, 4, 5, 8, 5, 5, 4}, uint8(3), uint8(2), true)
	f.Add([]byte{0, 1, 2, 0, 1, 5, 2, 1, 12, 3, 3, 4, 3, 3, 4}, uint8(1), uint8(2), false)
	f.Add([]byte{0, 1, 4, 0, 2, 8, 3, 0, 2, 4, 4, 4, 5, 6, 0, 5, 1, 1}, uint8(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, ranks, threads uint8, stream bool) {
		c := rowCase{name: "fuzz", n: 1}
		for i := 0; i+2 < len(data) && len(c.entries) < 256; i += 3 {
			e := graph.Edge{U: graph.V(data[i] % 48), V: graph.V(data[i+1] % 48), W: float64(data[i+2]%16) / 4}
			c.entries = append(c.entries, e)
			c.n = max(c.n, int(e.U)+1, int(e.V)+1)
		}
		chunk := -1
		if stream {
			chunk = 64
		}
		a := armSkipAudit(t)
		if err := checkRows(c, int(ranks%4)+1, int(threads%2)+1, chunk); err != nil {
			t.Fatal(err)
		}
		a.clean(t, "fuzz")
	})
}
