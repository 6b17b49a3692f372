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
	"parlouvain/internal/wire"
)

// BenchmarkExchangeAllocs measures the propagate→exchange hot path per rank.
// Without a phase suffix one op is one full state propagation (Algorithm 3)
// — plane building, the all-to-all exchange, decode, one store per told
// vertex and the Σtot pull; under phase=iter it is the part of a steady-state inner
// iteration that lives on the out rows: findBest, a move-log propagation of
// a fixed sixteenth of the vertices with their Σtot deltas, and the push of
// the totals and modularity that follows it. allocs/op is the
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
// findBest + move-log propagation + push trio, allocate nothing at ranks
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

// TestSecondSolveGrowsNoSendBuffer: the send buffers a solve grows — the
// planes every exchange goes out on and the scatter's per-thread writers —
// go back to the plane pool when run returns, and the next solve in the
// process starts with them: on the same input it grows none of them. A
// buffer only ever grows, so the total capacity of the buffers the second
// engine holds is the same when run returns as when newEngine drew them,
// whichever role each buffer played. The collector is off and the process has
// one P for the test, so the pool keeps what the first solve handed back.
func TestSecondSolveGrowsNoSendBuffer(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so the pooled wire planes are re-allocated")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 2000
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 11))
	if err != nil {
		t.Fatal(err)
	}
	local := graph.SplitEdges(el, 1)[0]
	for _, threads := range []int{1, 2} {
		// solve runs one engine and returns the total capacity of its send
		// buffers as newEngine drew them and as run handed them back.
		solve := func() (drawn, returned int) {
			trs := comm.NewMemGroup(1)
			defer trs[0].Close()
			s := newEngine(comm.New(trs[0]), n, Options{Threads: threads}.withDefaults())
			held := []*wire.Planes{s.planes}
			for w := 0; w < threads; w++ {
				held = append(held, s.chunked.Writer(w))
			}
			capacity := func() int {
				c := 0
				for _, p := range held {
					for d := 0; d < p.Size(); d++ {
						c += cap(p.To(d).Bytes())
					}
				}
				return c
			}
			drawn = capacity()
			if _, err := s.run(local); err != nil {
				t.Fatal(err)
			}
			return drawn, capacity()
		}
		_, grown := solve()
		drawn, returned := solve()
		if drawn < grown || returned != drawn {
			t.Errorf("threads=%d: the first solve handed back %d bytes of send buffers; the second drew %d and grew them to %d",
				threads, grown, drawn, returned)
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
	{"", func(s *engine) error {
		_, err := s.propagate()
		return err
	}},
	{"/phase=iter", func(s *engine) error {
		s.findBest()
		if err := s.propagateDelta(); err != nil {
			return err
		}
		_, err := s.pushTotals()
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
				// A move from its community into the same one: the Σtot
				// deltas cancel, so every op ships the same planes.
				s.moveLog = append(s.moveLog, li)
				s.left[li] = s.commOf[li]
			}
		}
		if _, err := s.propagate(); err != nil {
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
