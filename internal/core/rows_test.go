package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/edgetable"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/wire"
)

// The row tests hold buildRows — the linear sort that lays a level's edge
// records out as its in-edge CSR — to the code it replaced: the paper's hash
// In_Table, kept here as the oracle. The same records go into an
// edgetable.Table in the same order, each row of its Range is sorted by
// source, and the engine's rows must have the same offsets, sources and weight
// *bits*, at level 0 and at the level after one reconstruction.

// csr is one rank's rows at one level.
type csr struct {
	off []int64
	src []graph.V
	w   []float64
}

func (s *engine) rows() csr {
	return csr{slices.Clone(s.adjOff), slices.Clone(s.adjSrc), slices.Clone(s.adjW)}
}

// differs names the first place two csr disagree, weights by bits.
func (a csr) differs(b csr) string {
	switch {
	case !slices.Equal(a.off, b.off):
		return fmt.Sprintf("offsets %v, want %v", a.off, b.off)
	case !slices.Equal(a.src, b.src):
		return fmt.Sprintf("sources %v, want %v", a.src, b.src)
	}
	for i := range a.w {
		if math.Float64bits(a.w[i]) != math.Float64bits(b.w[i]) {
			return fmt.Sprintf("weight of entry %d (source %d) = %v, want %v", i, a.src[i], a.w[i], b.w[i])
		}
	}
	return ""
}

// tableRows is the oracle: the records inserted, in order, into a pre-sized
// hash In_Table the way the engine did before it sorted (a raw self-loop
// doubled), then one sweep for the row lengths and one to fill, as levelInit
// ran them — rows in the table's order; sortRows puts them by source.
func tableRows(recs graph.EdgeList, raw bool, part graph.Partition, nLoc int) csr {
	tab := edgetable.New(edgetable.Config{Capacity: len(recs)})
	for _, e := range recs {
		if raw && e.U == e.V {
			e.W *= 2
		}
		tab.AddPair(e.U, e.V, e.W)
	}
	out := csr{off: make([]int64, nLoc+1), src: make([]graph.V, tab.Len()), w: make([]float64, tab.Len())}
	tab.Range(func(key uint64, _ float64) bool {
		_, dst := hashfn.Unpack32(key)
		out.off[part.LocalIndex(dst)+1]++
		return true
	})
	for i := 0; i < nLoc; i++ {
		out.off[i+1] += out.off[i]
	}
	cursor := slices.Clone(out.off)
	tab.Range(func(key uint64, w float64) bool {
		src, dst := hashfn.Unpack32(key)
		p := cursor[part.LocalIndex(dst)]
		cursor[part.LocalIndex(dst)]++
		out.src[p], out.w[p] = src, w
		return true
	})
	return out
}

func (c csr) sortRows() csr {
	for i := 0; i+1 < len(c.off); i++ {
		sort.Sort(&rowBySource{c.src[c.off[i]:c.off[i+1]], c.w[c.off[i]:c.off[i+1]]})
	}
	return c
}

type rowBySource struct {
	src []graph.V
	w   []float64
}

func (r *rowBySource) Len() int           { return len(r.src) }
func (r *rowBySource) Less(i, j int) bool { return r.src[i] < r.src[j] }
func (r *rowBySource) Swap(i, j int) {
	r.src[i], r.src[j] = r.src[j], r.src[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}

// buildCases are the symmetric row cases plus what the sort must get right
// and the out-row tests do not stress: weights whose sums round (so the order
// a pair's records are added in shows), pairs given three times, no edges.
func buildCases() []rowCase {
	cases := []rowCase{
		{name: "fractional-triples", n: 7, entries: both(
			graph.Edge{U: 0, V: 1, W: 0.1}, graph.Edge{U: 1, V: 2, W: 1e-9}, graph.Edge{U: 0, V: 1, W: 0.2}, graph.Edge{U: 3, V: 3, W: 0.3},
			graph.Edge{U: 1, V: 2, W: 1e9}, graph.Edge{U: 0, V: 1, W: 0.7}, graph.Edge{U: 3, V: 3, W: 0.1}, graph.Edge{U: 1, V: 2, W: 0.3},
			graph.Edge{U: 3, V: 3, W: 0.7}, graph.Edge{U: 6, V: 2, W: 1.0 / 3}, graph.Edge{U: 5, V: 6, W: 0.1}, graph.Edge{U: 4, V: 6, W: 0.7},
		)},
		{name: "empty", n: 4},
	}
	for _, c := range rowCases() {
		if !c.asymmetric {
			cases = append(cases, c)
		}
	}
	return cases
}

// buildLevels takes a group through level 0 and, with the vertices put in
// groups of three, one reconstruction and the level after it, holding every
// rank's rows at both levels to the table oracle. It returns them, level by
// level and rank by rank.
func buildLevels(c rowCase, ranks, threads int) ([2][]csr, error) {
	var levels [2][]csr
	parts := c.split(ranks)
	trs := comm.NewMemGroup(ranks)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	engines := make([]*engine, ranks)
	for r := range engines {
		engines[r] = newEngine(comm.New(trs[r]), c.n, Options{Threads: threads}.withDefaults())
		levels[0], levels[1] = append(levels[0], csr{}), append(levels[1], csr{})
	}
	hold := func(s *engine, level int, recs graph.EdgeList) error {
		levels[level][s.part.Rank] = s.rows()
		if d := s.rows().differs(tableRows(recs, level == 0, s.part, s.nLoc).sortRows()); d != "" {
			return fmt.Errorf("rank %d level %d: %s", s.part.Rank, level, d)
		}
		return s.checkInEdges(level)
	}
	err := runRanks(engines, func(s *engine) error {
		if err := s.loadLocal(parts[s.part.Rank]); err != nil {
			return err
		}
		if _, err := s.levelInit(); err != nil {
			return err
		}
		if err := hold(s, 0, parts[s.part.Rank]); err != nil {
			return err
		}
		for li := 0; li < s.nLoc; li++ {
			if v := s.part.GlobalID(li); s.active[li] && v%3 != 0 {
				s.relocate(li, v-v%3)
			}
		}
		if _, err := s.propagate(); err != nil {
			return err
		}
		if err := s.reconstruct(); err != nil {
			return err
		}
		// A pair's records all sit with one worker, so worker by worker is
		// arrival order as far as any sum is concerned.
		recs := slices.Concat(s.pend...)
		if _, err := s.levelInit(); err != nil {
			return err
		}
		return hold(s, 1, recs)
	})
	return levels, err
}

func TestBuildRowsMatchesTableOracle(t *testing.T) {
	for _, c := range buildCases() {
		for _, ranks := range []int{1, 2, 3} {
			for _, threads := range []int{1, 2, 3} {
				if _, err := buildLevels(c, ranks, threads); err != nil {
					t.Errorf("%s/ranks=%d/threads=%d: %v", c.name, ranks, threads, err)
				}
			}
		}
	}
}

// TestRowsCanonicalAcrossConfigs: a level's rows are a function of the input
// and the rank count alone — the same bytes at every thread count (in
// In_Table hash order they depended on the shard's capacity, hence on
// Threads).
func TestRowsCanonicalAcrossConfigs(t *testing.T) {
	frac := rowCase{name: "lfr-fractional", n: 600}
	for i, e := range skipLFR(t, 600, 0.3, 77) {
		frac.entries = append(frac.entries, both(graph.Edge{U: e.U, V: e.V, W: 0.1 * float64(1+i%7)})...)
	}
	for _, c := range append(buildCases(), frac) {
		for _, ranks := range []int{1, 2, 3} {
			base, err := buildLevels(c, ranks, 1)
			if err != nil {
				t.Fatalf("%s/ranks=%d: %v", c.name, ranks, err)
			}
			for _, threads := range []int{2, 3} {
				got, err := buildLevels(c, ranks, threads)
				if err != nil {
					t.Fatalf("%s/ranks=%d/threads=%d: %v", c.name, ranks, threads, err)
				}
				for level := range got {
					for rank := range got[level] {
						if d := got[level][rank].differs(base[level][rank]); d != "" {
							t.Errorf("%s/ranks=%d/threads=%d: rank %d level %d differs from threads=1: %s", c.name, ranks, threads, rank, level, d)
						}
					}
				}
			}
		}
	}
}

// FuzzBuildRows reads the payload as (u, v, w) byte triples over at most 48
// vertices, mirrors each — multi-edges, self-loops, zero and rounding weights
// all occur — and holds both levels' rows to the table oracle and to the rows
// of one thread, at a fuzzed rank count and thread count.
func FuzzBuildRows(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 2, 0, 1, 7, 1, 2, 3}, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 3, 0, 1, 4, 0, 0, 1, 4, 5, 8, 5, 5, 4, 0, 0, 7}, uint8(2), uint8(2))
	f.Add([]byte{7, 9, 1, 9, 7, 2, 3, 9, 0, 12, 40, 9, 40, 12, 3}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, ranks, threads uint8) {
		c := rowCase{name: "fuzz", n: 1}
		var raw graph.EdgeList
		for i := 0; i+2 < len(data) && len(raw) < 128; i += 3 {
			e := graph.Edge{U: graph.V(data[i] % 48), V: graph.V(data[i+1] % 48), W: float64(data[i+2]) / 10}
			raw = append(raw, e)
			c.n = max(c.n, int(e.U)+1, int(e.V)+1)
		}
		c.entries = both(raw...)
		got, err := buildLevels(c, int(ranks%3)+1, int(threads%3)+1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := buildLevels(c, int(ranks%3)+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for level := range got {
			for rank := range got[level] {
				if d := got[level][rank].differs(base[level][rank]); d != "" {
					t.Fatalf("rank %d level %d differs from threads=1: %s", rank, level, d)
				}
			}
		}
	})
}

// TestParallelLeavesLocalUntouched: the engine sorts straight out of the
// caller's edge list — at one thread without a copy — and must leave it as it
// was: order, and the self-loop weights it doubles on the way.
func TestParallelLeavesLocalUntouched(t *testing.T) {
	el := skipLFR(t, 400, 0.3, 5)
	for v := 0; v < 400; v += 9 {
		el = append(el, graph.Edge{U: graph.V(v), V: graph.V(v), W: 1.5})
	}
	for _, threads := range []int{1, 2} {
		parts := graph.SplitEdges(el, 2)
		before := []graph.EdgeList{slices.Clone(parts[0]), slices.Clone(parts[1])}
		if _, errs := parallelGroup(parts, 400, Options{Threads: threads}); errs[0] != nil || errs[1] != nil {
			t.Fatalf("threads=%d: %v", threads, errs)
		}
		for r := range parts {
			if !slices.Equal(parts[r], before[r]) {
				t.Errorf("threads=%d: rank %d's local list changed under Parallel", threads, r)
			}
		}
	}
}

// secondLevel brings single-threaded engines to the state the second
// levelInit of a solve starts from: level 0 built and propagated, every
// vertex still on its own, reconstructed.
func secondLevel(tb testing.TB, el graph.EdgeList, n, ranks int) []*engine {
	tb.Helper()
	states := levelEngines(tb, el, n, ranks)
	err := onRanks(states, func(s *engine) error {
		if _, err := s.propagate(); err != nil {
			return err
		}
		return s.reconstruct()
	})
	if err != nil {
		tb.Fatal(err)
	}
	return states
}

// TestLevelInitSteadyStateAllocatesNothing: every array a level's rows need
// reached its size at level 0, so from the second levelInit of a solve on
// building them allocates nothing.
func TestLevelInitSteadyStateAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so the pooled wire planes are re-allocated")
	}
	const (
		n   = 2000
		ops = 50
	)
	el := skipLFR(t, n, 0.3, 11)
	for _, ranks := range []int{1, 2} {
		states := secondLevel(t, el, n, ranks)
		op := func(s *engine) error { _, err := s.levelInit(); return err }
		if err := onRanks(states, op); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := onRanks(states, repeat(ops, op))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if perOp := (after.Mallocs - before.Mallocs) / ops; perOp != 0 {
			t.Errorf("ranks=%d: %d allocs per levelInit, want 0", ranks, perOp)
		}
	}
}

// BenchmarkBuildRows times laying out level 0 of rank 0's share of the two
// par-* bench inputs (two ranks): /rows is buildRows on the caller's list,
// /table-oracle what it replaced — the inserts into a pre-sized hash In_Table
// and levelInit's two sweeps over it (tableRows, unsorted).
func BenchmarkBuildRows(b *testing.B) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(12, 11))
	if err != nil {
		b.Fatal(err)
	}
	lfr, _, err := gen.LFR(gen.DefaultLFR(5000, 0.3, 11))
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		el   graph.EdgeList
		n    int
	}{{"rmat12", rmat, 1 << 12}, {"lfr5000", lfr, 5000}} {
		local := graph.SplitEdges(in.el, 2)[0]
		b.Run(in.name+"/rows", func(b *testing.B) {
			trs := comm.NewMemGroup(2)
			defer trs[0].Close()
			defer trs[1].Close()
			s := newEngine(comm.New(trs[0]), in.n, Options{}.withDefaults())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.loadLocal(local); err != nil {
					b.Fatal(err)
				}
				s.buildRows()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(local)), "ns/record")
		})
		b.Run(in.name+"/table-oracle", func(b *testing.B) {
			part := graph.Partition{Rank: 0, Size: 2}
			for i := 0; i < b.N; i++ {
				tableRows(local, true, part, part.MaxLocalCount(in.n))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(local)), "ns/record")
		})
	}
}

// TestReconstructRejectsHostileRecord hands reconstructMerge, on every rank
// and worker of a group about to rebuild its graph, records no honest peer
// sends: an id outside the id space, a destination the receiver does not own,
// a weight that is not finite or is negative, half a record — in one
// received plane. Each is an error naming the receiving rank — the parent
// indexed with them — and none is kept.
func TestReconstructRejectsHostileRecord(t *testing.T) {
	el := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 1}}
	const n = 6
	for _, ranks := range []int{1, 2, 3} {
		for _, threads := range []int{1, 2} {
			g := newScriptedGroup(t, el, n, ranks, threads)
			for _, s := range g.engines {
				own, other := uint32(s.part.Rank), uint32((s.part.Rank+1)%ranks)
				type badRec struct {
					name string
					tr   wire.Triple
				}
				bad := []badRec{
					{"source >= n", wire.Triple{A: n, B: own, W: 1}},
					{"destination >= n", wire.Triple{A: 0, B: n + own, W: 1}},
					{"destination far outside", wire.Triple{A: 0, B: math.MaxUint32, W: 1}},
					{"NaN weight", wire.Triple{A: 0, B: own, W: math.NaN()}},
					{"infinite weight", wire.Triple{A: 0, B: own, W: math.Inf(-1)}},
					{"negative weight", wire.Triple{A: 0, B: own, W: -0.25}},
				}
				if ranks > 1 {
					bad = append(bad, badRec{"destination of another rank", wire.Triple{A: 0, B: other, W: 1}})
				}
				for _, c := range bad {
					var b wire.Buffer
					b.PutTriple(wire.Triple{A: own, B: own, W: 2}) // a good record first
					b.PutTriple(c.tr)
					label := fmt.Sprintf("ranks=%d/threads=%d rank %d: %s", ranks, threads, s.part.Rank, c.name)
					refused := 0
					for t2 := 0; t2 < threads; t2++ {
						s.pend[t2] = s.pend[t2][:0]
						if err := s.reconstructMerge(t2, wire.NewReader(b.Bytes())); err != nil {
							refused++
							if !strings.Contains(err.Error(), fmt.Sprintf("rank %d", s.part.Rank)) {
								t.Errorf("%s: error %q does not name the rank", label, err)
							}
						}
						for _, e := range s.pend[t2] {
							if e != (graph.Edge{U: own, V: own, W: 2}) {
								t.Errorf("%s: worker %d kept %v", label, t2, e)
							}
						}
					}
					if refused != 1 {
						t.Errorf("%s: refused by %d workers, want exactly the one whose row it would be", label, refused)
					}
				}
				var half wire.Buffer
				half.PutU32(own)
				if err := s.reconstructMerge(0, wire.NewReader(half.Bytes())); err == nil {
					t.Errorf("ranks=%d rank %d: half a record accepted", ranks, s.part.Rank)
				}
			}
		}
	}
}

// cutTransport hands its rank, on the at-th exchange from now, a received
// round whose first non-empty plane lacks its last byte, and remembers that
// plane.
type cutTransport struct {
	comm.Transport
	at  int
	cut []byte
}

func (c *cutTransport) Exchange(out [][]byte) ([][]byte, error) {
	in, err := c.Transport.Exchange(out)
	if c.at--; c.at == 0 && err == nil {
		for i, p := range in {
			if len(p) > 0 {
				in[i], c.cut = p[:len(p)-1], p
				break
			}
		}
	}
	return in, err
}

// TestDecodeErrorReleasesReceivedRound: a received round that fails to decode
// goes back to the wire pool like one that decodes — in the bulk scatter
// (here reconstruction's), levelInit's round, the Σtot pull's two rounds, the move-log round that
// carries the Σtot deltas, the push, the warm start's deltas and invariant 8's
// naming round. The pool is asked for the very plane.
func TestDecodeErrorReleasesReceivedRound(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a quarter of its Puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard to look in
	ring, _, err := gen.RingOfCliques(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pullTotals := func(s *engine) error {
		_, err := s.pullTotals()
		return err
	}
	for _, c := range []struct {
		name string
		at   int
		op   func(s *engine) error
	}{
		{"scatter", 1, (*engine).reconstruct},
		{"levelSums", 1, func(s *engine) error {
			_, err := s.levelInit()
			return err
		}},
		{"pullTotals requests", 1, pullTotals},
		{"pullTotals replies", 2, pullTotals},
		{"propagateDelta", 1, func(s *engine) error {
			s.bestGain[0], s.bestTo[0] = 1, s.commOf[1]
			s.gainers[0] = append(s.gainers[0][:0], 0)
			s.update(minMoveGain)
			return s.propagateDelta()
		}},
		{"pushTotals", 1, func(s *engine) error {
			_, err := s.pushTotals()
			return err
		}},
		{"applyWarm", 1, func(s *engine) error {
			s.opt.Warm = make([]graph.V, 16) // everyone into community 0
			return s.applyWarm()
		}},
		{"checkOutRows", 1, func(s *engine) error { return s.checkOutRows(0, 0, s.commOf) }}, // one rank, everyone on their own
	} {
		tr := &cutTransport{Transport: comm.NewMemGroup(1)[0]}
		s := newEngine(comm.New(tr), 16, Options{}.withDefaults())
		if err := s.loadLocal(graph.SplitEdges(ring, 1)[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.levelInit(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.propagate(); err != nil {
			t.Fatal(err)
		}
		tr.at = c.at
		err := c.op(s)
		back := false
		for i := 0; i < 64 && !back && tr.cut != nil; i++ {
			back = &wire.GetPlane(1)[0] == &tr.cut[0]
		}
		if err == nil || !back {
			t.Errorf("%s: err = %v, cut plane back in the pool: %v; want an error and true", c.name, err, back)
		}
		tr.Close()
	}
}
