package core

import (
	"fmt"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/par"
)

// BenchmarkExchangeAllocs measures the propagate→exchange hot path per rank.
// Without a phase suffix one op is one full state propagation (Algorithm 3)
// — plane building, the all-to-all exchange, decode, one store per slot and
// the Σtot pull; under phase=iter it is the part of a steady-state inner
// iteration that lives on the out rows: findBest, a move-log propagation of
// a fixed sixteenth of the vertices, and computeQ. allocs/op is the
// steady-state allocation count; the buffer pooling in internal/wire and the
// pre-bound phase bodies exist to keep it at zero (numbers tracked in
// EXPERIMENTS.md). The mode axis pins both exchange paths: bulk is the
// zero-alloc baseline (its numbers must not regress), stream pays a small
// constant per-round cost for merge workers and the collator pump.
func BenchmarkExchangeAllocs(b *testing.B) {
	const n = 2000
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 11))
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name  string
		chunk int
	}{
		{"bulk", -1},
		{"stream", DefaultStreamChunk},
	}
	phases := []struct {
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
	for _, mode := range modes {
		for _, ranks := range []int{1, 2} {
			for _, phase := range phases {
				b.Run(fmt.Sprintf("mode=%s/ranks=%d%s", mode.name, ranks, phase.suffix), func(b *testing.B) {
					parts := graph.SplitEdges(el, ranks)
					trs := comm.NewMemGroup(ranks)
					defer func() {
						for _, tr := range trs {
							tr.Close()
						}
					}()
					states := make([]*engine, ranks)
					var setup par.Group
					for r := 0; r < ranks; r++ {
						r := r
						setup.Go(func() error {
							opt := Options{Threads: 1, StreamChunk: mode.chunk}.withDefaults()
							s := newEngine(comm.New(trs[r]), n, opt)
							states[r] = s
							if err := s.loadLocal(parts[r]); err != nil {
								return err
							}
							if _, err := s.levelInit(); err != nil {
								return err
							}
							for li := 0; li < s.nLoc; li += 16 {
								if s.active[li] {
									s.moveLog = append(s.moveLog, li)
								}
							}
							// Warm every reusable buffer so the measured loop
							// sees steady state.
							if err := s.propagate(); err != nil {
								return err
							}
							return phase.op(s)
						})
					}
					if err := setup.Wait(); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					var run par.Group
					for r := 0; r < ranks; r++ {
						r := r
						run.Go(func() error {
							for i := 0; i < b.N; i++ {
								if err := phase.op(states[r]); err != nil {
									return err
								}
							}
							return nil
						})
					}
					if err := run.Wait(); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
