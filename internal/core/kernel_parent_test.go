package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/wire"
)

// The three per-entry loops of par-louvain — score, relocate and the delta
// branch of mergeRecords — were rewritten to run without data-dependent
// branches and with the same floating-point operations in the same order.
// Their branching versions are kept below, verbatim, as oracles: every
// (bestGain, bestTo, rival, stay), every Σin and every skip horizon must be
// the oracle's bit for bit.

// parentScore is score as it was with branches: the singleton and return
// rules tested before the gain, and dropRow clearing the row afterwards.
func parentScore(s *engine, sc *gainScan, li int) (bestGain float64, bestTo graph.V, rival, stay float64) {
	c0, ku, lo, hi := s.commOf[li], s.k[li], s.adjOff[li], s.adjOff[li+1]
	touched := sc.gather(s.adjSrc[lo:hi], s.adjW[lo:hi], s.ghost)
	stay = metrics.DeltaQ(sc.w2c[c0]-s.self2[li], s.totCache[c0]-ku, ku, s.m)
	single := s.memCache[c0] == 1
	bestGain, bestTo = 0.0, c0
	// The rival is a branch-free maximum over orderBits keys, as in gainScan.best.
	other := int64(orderBits(math.Float64bits(math.Inf(-1))))
	for _, cc := range touched {
		if cc == c0 {
			continue
		}
		g := metrics.DeltaQ(sc.w2c[cc], s.totCache[cc], ku, s.m) - stay
		other = max(other, int64(orderBits(math.Float64bits(g))))
		// Singleton minimum-label rule (Grappolo-style, the paper's
		// ref [11]): when a vertex alone in its community targets
		// another singleton community with a larger label, suppress
		// the move. Without this, symmetric pairs swap communities
		// forever and never merge.
		if cc > c0 && single && s.memCache[cc] == 1 {
			continue
		}
		// Return rule, the singleton rule generalised to any two-cycle: a
		// vertex that moved in the last update may not go straight back
		// into the community it left when that label is larger. Of two
		// neighbours that swapped communities, exactly one can return,
		// so the pair merges instead of swapping back.
		if cc > c0 && cc == s.left[li] {
			continue
		}
		if g > bestGain || (g == bestGain && g > 0 && cc < bestTo) {
			bestGain, bestTo = g, cc
		}
	}
	sc.dropRow()
	return bestGain, bestTo, math.Float64frombits(orderBits(uint64(other))), stay
}

// parentRelocate is relocate as it was, with a switch per row entry.
func parentRelocate(s *engine, li int, newC graph.V) {
	oldC, nc := uint32(s.commOf[li]), uint32(newC)
	lo, hi := s.adjOff[li], s.adjOff[li+1]
	w := s.adjW[lo:hi]
	for i, v := range s.adjSrc[lo:hi] {
		switch s.ghost[v] {
		case oldC:
			s.intra -= w[i]
		case nc:
			s.intra += w[i]
		}
	}
	s.commOf[li] = newC
	s.moveLog = append(s.moveLog, li)
	s.left[li] = graph.V(oldC)
	s.skipUntil[li] = 0
}

// parentMergeRecords is mergeRecords as it was, with two branches per row
// entry in its delta loop.
func parentMergeRecords(s *engine, t int, r *wire.Reader, delta bool) error {
	if t != 0 {
		return nil
	}
	for r.More() {
		u, cc := r.Pair()
		if r.Err() != nil {
			break
		}
		if int(u) >= s.n || int(cc) >= s.n {
			return fmt.Errorf("core: rank %d received propagation record (vertex %d, community %d) outside its %d ids",
				s.part.Rank, u, cc, s.n)
		}
		lo, hi := s.revOff[u], s.revOff[u+1]
		if lo == hi {
			return fmt.Errorf("core: rank %d was told the community of vertex %d, which no row of its has for a neighbor",
				s.part.Rank, u)
		}
		old := s.ghost[u]
		s.ghost[u] = cc
		s.reference(cc)
		if !delta {
			continue
		}
		w := s.revW[lo:hi]
		for i, li := range s.revRow[lo:hi] {
			c0, spend := uint32(s.commOf[li]), 1.0
			if old == c0 {
				s.intra -= w[i]
				spend = 2
			}
			if cc == c0 {
				s.intra += w[i]
				spend = 0
			}
			s.skipUntil[li] -= spend * w[i] * s.skipRate[li]
		}
	}
	return r.Err()
}

// kernelWeights are the weights kernel inputs draw from: zeros, which list a
// community twice in a row (gainScan), integers and fractions.
var kernelWeights = [...]float64{0, 1, 0.5, 2.25, 0.1, 3, 0, 1.0 / 3}

// kernelCase decodes a fuzz input: byte 0 picks the rank count (1–3), byte 1
// the vertex count (2–17), byte 2 the number of edges; each edge is three
// bytes (u, v, weight index), u == v a self-loop, and a pair may repeat. The
// bytes left over script the moves (kernelRound).
func kernelCase(data []byte) (el graph.EdgeList, n, ranks int, script []byte) {
	if len(data) < 3 {
		return nil, 0, 0, nil
	}
	ranks, n = 1+int(data[0])%3, 2+int(data[1])%16
	edges, data := int(data[2]), data[3:]
	for ; edges > 0 && len(data) >= 3; edges, data = edges-1, data[3:] {
		el = append(el, graph.Edge{U: graph.V(int(data[0]) % n), V: graph.V(int(data[1]) % n), W: kernelWeights[int(data[2])%len(kernelWeights)]})
	}
	return el, n, ranks, data
}

// checkKernelAgainstParent loads el on a group of the given rank count and
// holds score to parentScore on every active row after the full propagation
// and after each of two scripted inner iterations (kernelRound), in which
// relocate and the delta merge are held to theirs. It returns the number of
// rows scored while the return rule was armed: the vertex had just left a
// community with a larger label that its row still lists.
func checkKernelAgainstParent(t *testing.T, el graph.EdgeList, n, ranks int, script []byte) (armed int) {
	t.Helper()
	g := newScriptedGroup(t, el, n, ranks, 1)
	armed += checkScores(t, g, "after the full propagation")
	for round := 1; round <= 2; round++ {
		kernelRound(t, g, script, round)
		armed += checkScores(t, g, fmt.Sprintf("after move-log round %d", round))
	}
	return armed
}

// checkScores compares score with parentScore on every active row of every
// rank, and requires the accumulator all +0 after each call.
func checkScores(t *testing.T, g *scriptedGroup, when string) (armed int) {
	t.Helper()
	for _, s := range g.engines {
		sc := s.scan[0]
		for li := 0; li < s.nLoc; li++ {
			if !s.active[li] {
				continue
			}
			if c0, back := s.commOf[li], s.left[li]; back > c0 {
				lo, hi := s.adjOff[li], s.adjOff[li+1]
				for _, v := range s.adjSrc[lo:hi] {
					if s.ghost[v] == back {
						armed++
						break
					}
				}
			}
			gain, to, rival, stay := s.score(sc, li)
			if i := slices.IndexFunc(sc.w2c, func(w float64) bool { return math.Float64bits(w) != 0 }); i >= 0 {
				t.Fatalf("%s, rank %d row %d: score left w2c[%d] = %g", when, s.part.Rank, li, i, sc.w2c[i])
			}
			wGain, wTo, wRival, wStay := parentScore(s, sc, li)
			if math.Float64bits(gain) != math.Float64bits(wGain) || to != wTo ||
				math.Float64bits(rival) != math.Float64bits(wRival) || math.Float64bits(stay) != math.Float64bits(wStay) {
				t.Fatalf("%s, rank %d row %d (vertex %d): score (gain %v, to %d, rival %v, stay %v), parent (%v, %d, %v, %v)",
					when, s.part.Rank, li, s.part.GlobalID(li), gain, to, rival, stay, wGain, wTo, wRival, wStay)
			}
		}
	}
	return armed
}

// kernelRound runs one inner iteration — the sweep, then scripted moves, the
// move-log propagation and the push — checking relocate and the delta merge
// against their oracles on every rank. Vertex v moves when its script byte
// (the script read cyclically from v·round) is a multiple of 3, into the
// community of its row entry picked by the byte, unless it is there already.
// A rank notes its first mismatch and runs the round to its end, so that no
// other rank waits on it.
func kernelRound(t *testing.T, g *scriptedGroup, script []byte, round int) {
	t.Helper()
	mismatch := make([]error, len(g.engines))
	fail := func(s *engine, format string, args ...any) {
		if mismatch[s.part.Rank] == nil {
			mismatch[s.part.Rank] = fmt.Errorf("round %d, rank %d: "+format, append([]any{round, s.part.Rank}, args...)...)
		}
	}
	err := runRanks(g.engines, func(s *engine) error {
		s.findBest()
		for _, li := range s.moveLog {
			s.left[li] = 0
		}
		s.moveLog = s.moveLog[:0]
		for li := 0; li < s.nLoc && len(script) > 0; li++ {
			b := int(script[int(s.part.GlobalID(li))*round%len(script)])
			lo, hi := s.adjOff[li], s.adjOff[li+1]
			if !s.active[li] || b%3 != 0 || lo == hi {
				continue
			}
			to := graph.V(s.ghost[s.adjSrc[lo+int64(b/3)%(hi-lo)]])
			if to == s.commOf[li] {
				continue
			}
			in, c0, back, until := s.intra, s.commOf[li], s.left[li], s.skipUntil[li]
			parentRelocate(s, li, to)
			want := s.intra
			s.intra, s.commOf[li], s.left[li], s.skipUntil[li] = in, c0, back, until
			s.moveLog = s.moveLog[:len(s.moveLog)-1]
			s.relocate(li, to)
			if math.Float64bits(s.intra) != math.Float64bits(want) {
				fail(s, "relocate(%d, %d) left Σin %v, parent %v", li, to, s.intra, want)
			}
		}
		merge := s.deltaMergeFn
		defer func() { s.deltaMergeFn = merge }()
		s.deltaMergeFn = func(t int, r *wire.Reader) error {
			if t != 0 {
				return nil
			}
			if r.More() {
				if err := s.applyMoveDeltas(r); err != nil {
					return err
				}
			}
			ghost, until, seen, refs, in := slices.Clone(s.ghost), slices.Clone(s.skipUntil), slices.Clone(s.refSeen), slices.Clone(s.refs), s.intra
			rc := *r
			if err := parentMergeRecords(s, t, &rc, true); err != nil {
				return err
			}
			want, wantUntil := s.intra, slices.Clone(s.skipUntil)
			copy(s.ghost, ghost)
			copy(s.skipUntil, until)
			copy(s.refSeen, seen)
			s.refs, s.intra = append(s.refs[:0], refs...), in
			if err := s.mergeRecords(t, r, true); err != nil {
				return err
			}
			if math.Float64bits(s.intra) != math.Float64bits(want) {
				fail(s, "the delta merge left Σin %v, parent %v", s.intra, want)
			}
			for li, u := range s.skipUntil {
				if math.Float64bits(u) != math.Float64bits(wantUntil[li]) {
					fail(s, "the delta merge left row %d's horizon %v, parent %v", li, u, wantUntil[li])
				}
			}
			return nil
		}
		if err := s.propagateDelta(); err != nil {
			return err
		}
		_, err := s.pushTotals()
		return err
	})
	if err := errors.Join(append(mismatch, err)...); err != nil {
		t.Fatal(err)
	}
}

// TestScoreMatchesParent holds score, relocate and the delta merge to their
// branching oracles at 1–3 ranks: on an LFR graph with fractional weights, a
// zero weight on every seventh edge and a self-loop on every fifth vertex,
// and on a hand-made list with duplicate pairs and zero-weight entries. The
// LFR case must arm the return rule on some row.
func TestScoreMatchesParent(t *testing.T) {
	lfr, _, err := gen.LFR(gen.DefaultLFR(300, 0.3, 13))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lfr {
		lfr[i].W = kernelWeights[1+i%(len(kernelWeights)-1)]
	}
	for v := graph.V(0); v < 300; v += 5 {
		lfr = append(lfr, graph.Edge{U: v, V: v, W: 0.5})
	}
	script := make([]byte, 97)
	for i := range script {
		script[i] = byte(i * 7)
	}
	small := graph.EdgeList{
		{U: 0, V: 1, W: 0}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 0.5}, {U: 0, V: 1, W: 0},
		{U: 2, V: 3, W: 0}, {U: 3, V: 4, W: 2.25}, {U: 2, V: 4, W: 0}, {U: 4, V: 4, W: 1},
		{U: 1, V: 3, W: 0.1}, {U: 0, V: 3, W: 0}, {U: 3, V: 0, W: 1},
	}
	for _, c := range []struct {
		name   string
		el     graph.EdgeList
		n      int
		script []byte
	}{{"lfr", lfr, 300, script}, {"small", small, 5, []byte{0, 3, 6, 1, 9}}} {
		for ranks := 1; ranks <= 3; ranks++ {
			t.Run(fmt.Sprintf("%s/ranks=%d", c.name, ranks), func(t *testing.T) {
				if armed := checkKernelAgainstParent(t, c.el, c.n, ranks, c.script); c.name == "lfr" && armed == 0 {
					t.Error("no row was scored with the return rule armed")
				}
			})
		}
	}
}

// FuzzScore is TestScoreMatchesParent on fuzzed lists (kernelCase).
func FuzzScore(f *testing.F) {
	f.Add([]byte{1, 5, 6, 0, 1, 0, 0, 2, 1, 1, 2, 2, 0, 1, 6, 3, 3, 1, 2, 3, 0, 0, 3, 6, 9})
	f.Add([]byte{2, 9, 9, 0, 1, 1, 1, 2, 2, 2, 3, 0, 3, 4, 3, 4, 5, 0, 5, 0, 2, 6, 7, 7, 7, 8, 1, 8, 6, 4, 3, 0, 9, 6})
	f.Add([]byte{0, 3, 4, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		el, n, ranks, script := kernelCase(data)
		if len(el) == 0 {
			return
		}
		checkKernelAgainstParent(t, el, n, ranks, script)
	})
}
