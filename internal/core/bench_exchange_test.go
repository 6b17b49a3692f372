package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/par"
)

// BenchmarkExchangeAllocs measures the propagate→exchange hot path per rank.
// Without a phase suffix one op is one full state propagation (Algorithm 3)
// — plane building, the all-to-all exchange, decode, one store per told
// vertex and the Σtot pull; under phase=iter it is the part of a steady-state inner
// iteration that lives on the out rows: findBest, a move-log propagation of
// a fixed sixteenth of the vertices, and computeQ. allocs/op is the
// steady-state allocation count; the buffer pooling in internal/wire and the
// pre-bound phase bodies exist to keep it at zero (numbers tracked in
// EXPERIMENTS.md). The rows keep the mode=bulk prefix their earlier numbers
// were recorded under.
func BenchmarkExchangeAllocs(b *testing.B) {
	const n = 2000
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 11))
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		for _, phase := range exchangeOps {
			b.Run(fmt.Sprintf("mode=bulk/ranks=%d%s", ranks, phase.suffix), func(b *testing.B) {
				states := steadyEngines(b, el, n, ranks, phase.op)
				b.ReportAllocs()
				b.ResetTimer()
				if err := onRanks(states, repeat(b.N, phase.op)); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// TestExchangeSteadyStateAllocatesNothing is the blocking form of the
// benchmark: a steady-state full propagation, and the
// findBest + move-log propagation + computeQ trio, allocate nothing at ranks
// 1 and 2. The count is every malloc of the process over the measured ops,
// the goroutines that drive the ranks included, divided by the ops per rank —
// so it reads 0 while the hot path is clean and ≥ 1 as soon as one rank
// allocates once per op.
func TestExchangeSteadyStateAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so the pooled wire planes are re-allocated")
	}
	const (
		n   = 2000
		ops = 200
	)
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2} {
		for _, phase := range exchangeOps {
			states := steadyEngines(t, el, n, ranks, phase.op)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := onRanks(states, repeat(ops, phase.op))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if perOp := (after.Mallocs - before.Mallocs) / ops; perOp != 0 {
				t.Errorf("ranks=%d%s: %d allocs/op, want 0", ranks, phase.suffix, perOp)
			}
		}
	}
}

// TestInvariantCatchesInEdgeDrift is invariant 7's negative test: each clause
// broken in turn on rows buildRows just laid out — two entries of a row
// swapped, a source repeated, a source outside the id space, a weight bumped
// (the row no longer sums to the degree), a weight not finite — and the check
// must say so every time.
func TestInvariantCatchesInEdgeDrift(t *testing.T) {
	el, _, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := levelEngines(t, el, 40, 1)[0]
	if err := s.checkInEdges(0); err != nil {
		t.Fatalf("untouched engine: %v", err)
	}
	e := s.adjOff[7] // a row of at least two entries
	for _, c := range []struct {
		name, want string
		break_     func()
	}{
		{"two entries swapped", "rows are ascending", func() {
			s.adjSrc[e], s.adjSrc[e+1] = s.adjSrc[e+1], s.adjSrc[e]
			s.adjW[e], s.adjW[e+1] = s.adjW[e+1], s.adjW[e]
		}},
		{"a source repeated", "rows are ascending", func() { s.adjSrc[e+1] = s.adjSrc[e] }},
		{"a source outside the id space", "inside 40 ids", func() { s.adjSrc[s.adjOff[8]-1] = 40 }},
		{"a weight bumped", "its degree is", func() { s.adjW[e]++ }},
		{"a weight not finite", "NaN", func() { s.adjW[e] = math.NaN() }},
	} {
		src, w := slices.Clone(s.adjSrc), slices.Clone(s.adjW)
		c.break_()
		if err := s.checkInEdges(0); !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want an ErrInvariant saying %q", c.name, err, c.want)
		}
		copy(s.adjSrc, src)
		copy(s.adjW, w)
	}
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, kv := range bi.Settings {
		if kv.Key == "-race" {
			return kv.Value == "true"
		}
	}
	return false
}

// exchangeOps are the two hot paths the benchmark and the allocation gate
// run: one full state propagation, and the out-row part of an inner iteration.
var exchangeOps = []struct {
	suffix string
	op     func(s *engine) error
}{
	{"", (*engine).propagate},
	{"/phase=iter", func(s *engine) error {
		s.findBest()
		if err := s.propagateDelta(); err != nil {
			return err
		}
		_, err := s.computeQ()
		return err
	}},
}

// levelEngines builds one single-threaded engine per rank over an in-process
// group and takes each through loadLocal and levelInit: the state a level's
// first propagation starts from. The transports close with the test.
func levelEngines(tb testing.TB, el graph.EdgeList, n, ranks int) []*engine {
	tb.Helper()
	parts := graph.SplitEdges(el, ranks)
	trs := comm.NewMemGroup(ranks)
	tb.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	states := make([]*engine, ranks)
	for r := range states {
		states[r] = newEngine(comm.New(trs[r]), n, Options{Threads: 1}.withDefaults())
	}
	err := onRanks(states, func(s *engine) error {
		if err := s.loadLocal(parts[s.part.Rank]); err != nil {
			return err
		}
		_, err := s.levelInit()
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return states
}

// steadyEngines is levelEngines with a fixed sixteenth of the vertices logged
// as moved and every reusable buffer warm — one full propagation and one op
// have run — so the caller's next op sees steady state.
func steadyEngines(tb testing.TB, el graph.EdgeList, n, ranks int, op func(*engine) error) []*engine {
	tb.Helper()
	states := levelEngines(tb, el, n, ranks)
	err := onRanks(states, func(s *engine) error {
		for li := 0; li < s.nLoc; li += 16 {
			if s.active[li] {
				s.moveLog = append(s.moveLog, li)
			}
		}
		if err := s.propagate(); err != nil {
			return err
		}
		return op(s)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return states
}

// onRanks runs fn on every rank's engine concurrently, as the collectives
// inside it require, and returns the first error.
func onRanks(states []*engine, fn func(*engine) error) error {
	var g par.Group
	for _, s := range states {
		g.Go(func() error { return fn(s) })
	}
	return g.Wait()
}

// repeat returns the function that calls op n times.
func repeat(n int, op func(*engine) error) func(*engine) error {
	return func(s *engine) error {
		for i := 0; i < n; i++ {
			if err := op(s); err != nil {
				return err
			}
		}
		return nil
	}
}
