package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// The out-row tests drive levelInit's indexes and the two propagation builds
// directly — engines brought up to levelInit, communities assigned by fiat —
// and compare every row, and the running Σin, against a brute-force oracle
// computed from the raw entry list: w_{v→c} = Σ w(v→u) over entries whose
// head u is labelled c. The engine reads those sums off v's *in*-edges and
// ghost, so the comparison is also the proof that the substitution holds on a
// symmetric list. Weights are dyadic, so the sums are exact in any order.

// rowCase is one directed entry list (U→V, W) over n vertices, exactly as a
// rank group is handed it: each entry lives at owner(V), a self-loop appears
// once. asymmetric marks a list some entry of which has no mirror: the
// engines must refuse it, on every rank, and say why.
type rowCase struct {
	name       string
	n          int
	entries    graph.EdgeList
	asymmetric bool
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
		{name: "triangle+tail", n: 5, entries: both(
			graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 2}, graph.Edge{U: 0, V: 2, W: 0.5}, graph.Edge{U: 2, V: 3, W: 4},
		)},
		{name: "self-loops", n: 6, entries: both(
			graph.Edge{U: 0, V: 0, W: 1.5}, graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 1, W: 0.25}, graph.Edge{U: 4, V: 5, W: 2}, graph.Edge{U: 5, V: 5, W: 1},
		)},
		{name: "multi-edges", n: 4, entries: both(
			graph.Edge{U: 0, V: 1, W: 0.5}, graph.Edge{U: 0, V: 1, W: 1.25}, graph.Edge{U: 1, V: 2, W: 1}, graph.Edge{U: 2, V: 1, W: 3}, graph.Edge{U: 3, V: 3, W: 1}, graph.Edge{U: 3, V: 3, W: 1},
		)},
		{name: "isolated", n: 12, entries: both(
			graph.Edge{U: 2, V: 9, W: 1}, graph.Edge{U: 9, V: 4, W: 2},
		)},
		directedCase(),
		{name: "hub", n: 1201, entries: hub},
	}
}

// directedCase is a list nothing of which is mirrored.
func directedCase() rowCase {
	return rowCase{name: "directed", n: 7, asymmetric: true, entries: graph.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 3, V: 0, W: 0.5}, {U: 4, V: 4, W: 1}, {U: 5, V: 6, W: 1}, {U: 5, V: 1, W: 0.25}, {U: 0, V: 1, W: 0.25},
	}}
}

// halfMirroredCase is a symmetric list with the one record (3→0) dropped, in
// the middle of a 4-clique: at one and two ranks every vertex still has a
// neighbor on, and is still a neighbor on, every rank it had before, so
// nothing about who tells whom gives the missing record away.
func halfMirroredCase() rowCase {
	c := rowCase{name: "half-mirrored", n: 6, asymmetric: true}
	for _, e := range both(
		graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 0, V: 2, W: 1}, graph.Edge{U: 0, V: 3, W: 1}, graph.Edge{U: 1, V: 2, W: 1},
		graph.Edge{U: 1, V: 3, W: 1}, graph.Edge{U: 2, V: 3, W: 1}, graph.Edge{U: 3, V: 4, W: 1}, graph.Edge{U: 4, V: 5, W: 1},
	) {
		if e.U != 3 || e.V != 0 {
			c.entries = append(c.entries, e)
		}
	}
	return c
}

// split hands each entry to the rank that owns its head.
func (c rowCase) split(ranks int) []graph.EdgeList {
	part := graph.Partition{Size: ranks}
	parts := make([]graph.EdgeList, ranks)
	for _, e := range c.entries {
		parts[part.Owner(e.V)] = append(parts[part.Owner(e.V)], e)
	}
	return parts
}

// wantAsymmetric holds err to what a rank must say of an asymmetric input.
func wantAsymmetric(rank int, err error) error {
	if err == nil {
		return fmt.Errorf("rank %d accepted an input that is not symmetric", rank)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("rank %d", rank)) || !strings.Contains(msg, "not symmetric") {
		return fmt.Errorf("rank %d: error %q does not name the rank and say the input is not symmetric", rank, msg)
	}
	return nil
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

// runRanks runs fn once per engine, concurrently, as a collective step, and
// returns the first error. The first rank to fail closes every engine's
// Comm, as comm.RunGroup's abort closes its group, so the ranks parked in a
// collective the failed rank will never join return instead of waiting for
// the test binary's timeout.
func runRanks(engines []*engine, fn func(s *engine) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, s := range engines {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(s); err != nil {
				once.Do(func() {
					first = err
					for _, o := range engines {
						o.c.Close()
					}
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// TestRunRanksClosesOnError fails one rank of three before a collective the
// other two have entered: runRanks must return that rank's error within a
// second, not leave the two parked in the exchange.
func TestRunRanksClosesOnError(t *testing.T) {
	trs := comm.NewMemGroup(3)
	engines := make([]*engine, len(trs))
	for r, tr := range trs {
		engines[r] = newEngine(comm.New(tr), 6, Options{Threads: 1}.withDefaults())
	}
	errRank1 := errors.New("rank 1 gives up")
	done := make(chan error, 1)
	go func() {
		done <- runRanks(engines, func(s *engine) error {
			if s.part.Rank == 1 {
				return errRank1
			}
			_, err := s.c.AllReduceAnd(true)
			return err
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errRank1) {
			t.Errorf("runRanks returned %v, want rank 1's error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("runRanks still waiting a second after rank 1 failed")
	}
}

// checkRows drives one case through levelInit → full propagation under
// labels a → move-log propagation to labels b, checking every row and the
// running Σin against the oracle after each propagation, then sweeping. An
// asymmetric case must stop at levelInit, on every rank.
func checkRows(c rowCase, ranks, threads int, open openGroup) error {
	parts := c.split(ranks)
	trs, err := open(ranks)
	if err != nil {
		return err
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	engines := make([]*engine, ranks)
	for r := range engines {
		engines[r] = newEngine(comm.New(trs[r]), c.n, Options{Threads: threads}.withDefaults())
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
	// so any mark that survived a change to the row it could not pay for, or a
	// moved vertex, shows up as a disagreement. A row of zero degree spends
	// its horizon at the rate m/0: it must be scored, never left marked or
	// holding a NaN.
	sweep := func(s *engine) error {
		if s.m > 0 {
			s.findBest()
			for li := 0; li < s.nLoc; li++ {
				if until := s.skipUntil[li]; s.active[li] && (math.IsNaN(until) || s.k[li] == 0 && until > 0) {
					return fmt.Errorf("rank %d: vertex %d of degree %v holds the horizon %v after a sweep", s.part.Rank, s.part.GlobalID(li), s.k[li], until)
				}
			}
		}
		return s.checkIntra()
	}
	compare := func(step string, label func(graph.V) graph.V) error {
		want := rowOracle(c, label)
		var wantIn, gotIn float64
		for _, e := range c.entries {
			if label(e.U) == label(e.V) {
				wantIn += e.W
				if e.U == e.V {
					wantIn += e.W
				}
			}
		}
		rowEntries := 0
		for _, s := range engines {
			rowEntries += len(s.adjSrc)
			gotIn += s.intra
			for li := 0; li < s.nLoc; li++ {
				v := s.part.GlobalID(li)
				if int(v) >= c.n {
					break
				}
				got := map[graph.V]float64{}
				lo, hi := s.adjOff[li], s.adjOff[li+1]
				for _, cc := range s.scan[0].gather(s.adjSrc[lo:hi], s.adjW[lo:hi], s.ghost) {
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
		if rowEntries != len(distinct) {
			return fmt.Errorf("%s: %d row entries for %d distinct (u→v) entries", step, rowEntries, len(distinct))
		}
		if gotIn != wantIn {
			return fmt.Errorf("%s: running Σin = %v over the group, want %v", step, gotIn, wantIn)
		}
		return nil
	}

	err = runRanks(engines, func(s *engine) error {
		if err := s.loadLocal(parts[s.part.Rank]); err != nil {
			return err
		}
		_, err := s.levelInit()
		if c.asymmetric {
			return wantAsymmetric(s.part.Rank, err)
		}
		if err != nil {
			return err
		}
		relabel(s, a)
		if _, err := s.propagate(); err != nil {
			return err
		}
		return sweep(s)
	})
	if err != nil || c.asymmetric {
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

// rowRanks are the group sizes the row tests run at; 65 is there so that a
// rank list cannot quietly become a 64-bit mask.
var rowRanks = []int{1, 2, 3, 4, 7, 65}

// openGroup brings up the transports of a rank group of the given size.
type openGroup func(ranks int) ([]comm.Transport, error)

func memGroup(ranks int) ([]comm.Transport, error) { return comm.NewMemGroup(ranks), nil }

// tcpGroup brings up a group over real loopback TCP.
func tcpGroup(ranks int) ([]comm.Transport, error) {
	addrs, err := comm.LocalAddrs(ranks)
	if err != nil {
		return nil, err
	}
	trs := make([]comm.Transport, ranks)
	var g par.Group
	for r := range trs {
		g.Go(func() (err error) {
			trs[r], err = comm.NewTCP(comm.TCPConfig{Rank: r, Addrs: addrs})
			return err
		})
	}
	if err := g.Wait(); err != nil {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
		return nil, err
	}
	return trs, nil
}

// groupModes are the two ways the row and refusal tests carry a round: /bulk
// hands each plane whole between in-process mailboxes, /stream writes it down
// loopback TCP sockets, framed, as a group spread over hosts does.
var groupModes = []struct {
	name string
	open openGroup
}{{"bulk", memGroup}, {"stream", tcpGroup}}

func TestOutRowsMatchOracle(t *testing.T) {
	for _, c := range rowCases() {
		for _, ranks := range rowRanks {
			for _, threads := range []int{1, 2} {
				for _, mode := range groupModes {
					name := fmt.Sprintf("%s/ranks=%d/threads=%d/%s", c.name, ranks, threads, mode.name)
					t.Run(name, func(t *testing.T) {
						a := armSkipAudit(t)
						if err := checkRows(c, ranks, threads, mode.open); err != nil {
							t.Fatal(err)
						}
						a.clean(t, name)
					})
				}
			}
		}
	}
}

// parallelGroup runs Parallel on every rank of an in-process group, rank r on
// parts[r], and returns every rank's result and error.
func parallelGroup(parts []graph.EdgeList, n int, opt Options) ([]*Result, []error) {
	return runGroup(comm.NewMemGroup(len(parts)), parts, n, opt)
}

// runGroup runs Parallel on every rank of trs, rank r on parts[r], closes the
// transports once all have returned, and returns every rank's result and
// error.
func runGroup(trs []comm.Transport, parts []graph.EdgeList, n int, opt Options) ([]*Result, []error) {
	results, errs := make([]*Result, len(parts)), make([]error, len(parts))
	comm.RunGroup(context.Background(), trs, func(r int, c *comm.Comm) error {
		results[r], errs[r] = Parallel(c, parts[r], n, opt)
		return nil
	})
	return results, errs
}

// TestAsymmetricLocalRejected: a group handed a list that is not symmetric —
// nothing mirrored, or one mirror record missing from an otherwise symmetric
// list, in a place where the vertex that lost it keeps other in-edges from
// the same rank — gets an input error on every rank, with the invariant
// checker on or off, over either group; no rank is left waiting on a peer
// that gave up, and none returns a partition.
func TestAsymmetricLocalRejected(t *testing.T) {
	defer func() { forceInvariantChecks = true }()
	for _, c := range []rowCase{directedCase(), halfMirroredCase()} {
		for _, ranks := range []int{1, 2, 3} {
			for _, mode := range groupModes {
				for _, check := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/ranks=%d/%s/check=%v", c.name, ranks, mode.name, check), func(t *testing.T) {
						forceInvariantChecks = check
						trs, err := mode.open(ranks)
						if err != nil {
							t.Fatal(err)
						}
						var results []*Result
						var errs []error
						guard(t, time.Minute, "the group", func() {
							results, errs = runGroup(trs, c.split(ranks), c.n, Options{CheckInvariants: check})
						})
						for rank, err := range errs {
							if results[rank] != nil {
								t.Errorf("rank %d returned a partition", rank)
							}
							if err := wantAsymmetric(rank, err); err != nil {
								t.Error(err)
							}
						}
					})
				}
			}
		}
	}
}

// TestHostilePropagationRecords hands mergeRecords, on every rank of a group
// in mid-level, records no honest peer sends: an id or a community outside
// the id space, a vertex the receiver has no row for, half a record. Each is
// an error that names the receiving rank, for a full and a move-log merge
// alike, and stores nothing.
func TestHostilePropagationRecords(t *testing.T) {
	// A path 0–1–2–3 and an id, 5, nobody is a neighbor of.
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 4, W: 1}}
	const n = 6
	for _, ranks := range []int{1, 2, 3} {
		g := newScriptedGroup(t, el, n, ranks, 1)
		for _, s := range g.engines {
			ghost := append([]uint32(nil), s.ghost...)
			for _, bad := range []struct {
				name   string
				record []uint32
			}{
				{"vertex >= n", []uint32{n, 0}},
				{"community >= n", []uint32{1, n}},
				{"no row for the vertex", []uint32{5, 0}},
				{"half a record", []uint32{1}},
			} {
				var b wire.Buffer
				for _, x := range bad.record {
					b.PutU32(x)
				}
				for _, delta := range []bool{false, true} {
					err := s.mergeRecords(0, wire.NewReader(b.Bytes()), delta)
					if err == nil {
						t.Errorf("ranks=%d rank %d: %s (delta=%v) accepted", ranks, s.part.Rank, bad.name, delta)
					} else if len(bad.record) == 2 && !strings.Contains(err.Error(), fmt.Sprintf("rank %d", s.part.Rank)) {
						t.Errorf("ranks=%d rank %d: %s: error %q does not name the rank", ranks, s.part.Rank, bad.name, err)
					}
				}
			}
			if !slices.Equal(ghost, s.ghost) {
				t.Errorf("ranks=%d rank %d: a refused record was stored", ranks, s.part.Rank)
			}
		}
	}
}

// TestRunReleasesPlanes: the pooled send planes newEngine takes, the
// scatter's writers with them, go back to the pool on every way out of run — a completed solve, an edgeless graph,
// an edge the rank cannot hold, an asymmetric input, a cancelled context.
func TestRunReleasesPlanes(t *testing.T) {
	ring, _, err := gen.RingOfCliques(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring = graph.SplitEdges(ring, 1)[0]
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name    string
		local   graph.EdgeList
		n       int
		opt     Options
		wantErr bool
	}{
		{"solved", ring, 16, Options{}, false},
		{"edgeless", nil, 5, Options{}, false},
		{"edge outside the id space", graph.EdgeList{{U: 9, V: 0, W: 1}}, 3, Options{}, true},
		{"asymmetric", directedCase().entries, directedCase().n, Options{}, true},
		{"canceled", ring, 16, Options{Ctx: canceled}, true},
	} {
		trs := comm.NewMemGroup(1)
		s := newEngine(comm.New(trs[0]), c.n, c.opt.withDefaults())
		if s.planes == nil {
			t.Fatalf("%s: a new engine holds no planes, so the test proves nothing", c.name)
		}
		_, err := s.run(c.local)
		trs[0].Close()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want an error: %v", c.name, err, c.wantErr)
		}
		if s.planes != nil || s.chunked != nil {
			t.Errorf("%s: run returned (err = %v) with the engine still holding its pooled planes", c.name, err)
		}
	}
}

// FuzzOutRows reads the payload as (u, v, w) byte triples over at most 48
// vertices and mirrors each — duplicates, self-loops, zero weights and rows of
// zero degree all occur — and holds the rows to the oracle, the running Σin to
// a scan and the sweep's skips to a re-score, at a fuzzed rank count and
// thread count. On every third input (by the thread byte) every
// (v→u) mirror of the first non-loop entry is dropped, and the group must
// refuse the list instead. The weight byte is signed: a negative weight must
// make every rank of the group return an error.
func FuzzOutRows(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 0, 4, 1, 2, 8, 2, 1, 8}, uint8(2), uint8(1))
	f.Add([]byte{0, 0, 6, 0, 1, 4, 1, 1, 1, 4, 5, 8, 5, 5, 4}, uint8(3), uint8(2))
	f.Add([]byte{0, 1, 2, 0, 1, 5, 2, 1, 12, 3, 3, 4, 3, 3, 4}, uint8(1), uint8(2))
	f.Add([]byte{0, 1, 4, 0, 2, 8, 3, 0, 2, 4, 4, 4, 5, 6, 0, 5, 1, 1}, uint8(4), uint8(1))
	f.Add([]byte{0, 1, 4, 1, 2, 8, 2, 0, 8, 2, 3, 4}, uint8(5), uint8(4))
	f.Add([]byte{7, 7, 2, 7, 9, 4, 9, 7, 1, 3, 9, 0}, uint8(2), uint8(5))
	// Vertex 4's one edge weighs nothing, and its neighbour 3 moves from
	// labels a to b: a spend at the rate m/0.
	f.Add([]byte{0, 1, 4, 1, 2, 8, 2, 3, 4, 3, 4, 0, 5, 5, 4}, uint8(0), uint8(0))
	f.Add([]byte{0, 3, 0, 3, 6, 4, 6, 7, 0, 1, 3, 4, 7, 7, 0}, uint8(1), uint8(1))
	f.Add([]byte{0, 1, 4, 1, 2, 0xfc, 2, 0, 8}, uint8(2), uint8(1)) // (1,2) weighs −1
	f.Fuzz(func(t *testing.T, data []byte, ranks, threads uint8) {
		c := rowCase{name: "fuzz", n: 1}
		var raw graph.EdgeList
		negative := false
		for i := 0; i+2 < len(data) && len(raw) < 128; i += 3 {
			e := graph.Edge{U: graph.V(data[i] % 48), V: graph.V(data[i+1] % 48), W: float64(int8(data[i+2])%16) / 4}
			raw = append(raw, e)
			c.n = max(c.n, int(e.U)+1, int(e.V)+1)
			negative = negative || e.W < 0
		}
		c.entries = both(raw...)
		if negative {
			errs := groupErrors(t, c.split(rowRanks[int(ranks)%len(rowRanks)]), c.n, Options{Threads: int(threads%2) + 1})
			if !slices.ContainsFunc(errs, func(err error) bool { return strings.Contains(err.Error(), "negative weight") }) {
				t.Fatalf("no rank named the negative weight: %v", errs)
			}
			return
		}
		if threads/2%3 == 2 {
			for _, d := range raw {
				if d.U == d.V {
					continue
				}
				kept := c.entries[:0:0]
				for _, e := range c.entries {
					if e.U != d.V || e.V != d.U {
						kept = append(kept, e)
					}
				}
				c.entries, c.asymmetric = kept, true
				break
			}
		}
		a := armSkipAudit(t)
		if err := checkRows(c, rowRanks[int(ranks)%len(rowRanks)], int(threads%2)+1, memGroup); err != nil {
			t.Fatal(err)
		}
		a.clean(t, "fuzz")
	})
}
