package gen_test

import (
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

var sink int

// BenchmarkTable1Generators times the generators behind Table I's stand-in
// inputs at the sizes the benchmark's workloads draw: LFR n=40 000 (the
// plm-lfr family) and n=5 000 (par-lfr), R-MAT scale 14 (seq-rmat), BTER
// n=20 000 and Erdős–Rényi n=10 000 at k̄=16. Each reports ns/edge next to
// B/op and allocs/op.
func BenchmarkTable1Generators(b *testing.B) {
	cases := []struct {
		name string
		run  func() (graph.EdgeList, error)
	}{
		{"lfr40k", func() (graph.EdgeList, error) {
			el, _, err := gen.LFR(benchLFR(40000, benchSeed(0)))
			return el, err
		}},
		{"lfr5k", func() (graph.EdgeList, error) {
			el, _, err := gen.LFR(benchLFR(5000, benchSeed(0)))
			return el, err
		}},
		{"rmat14", func() (graph.EdgeList, error) { return gen.RMAT(gen.DefaultRMAT(14, benchSeed(0))) }},
		{"bter", func() (graph.EdgeList, error) {
			el, _, err := gen.BTER(gen.DefaultBTER(20000, 0.4, benchSeed(0)))
			return el, err
		}},
		{"er10k", func() (graph.EdgeList, error) { return gen.ER(10000, 16.0/9999, benchSeed(0)) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			edges := 0
			for i := 0; i < b.N; i++ {
				el, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				edges = len(el)
				sink += edges
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
		})
	}
}
