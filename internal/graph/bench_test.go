package graph_test

import (
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// The ingest benchmarks run on the two inputs the repo's benchmark solves
// whole-graph: R-MAT scale 14 (262k records, many duplicates, hub rows) and
// LFR n=40 000 (306k distinct edges). They report ns/edge next to the usual
// B/op and allocs/op; `-short` (the CI smoke) shrinks both inputs.

var sink int

func benchInputs(b *testing.B) map[string]graph.EdgeList {
	b.Helper()
	scale, n := 14, 40000
	if testing.Short() {
		scale, n = 10, 2000
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(scale, 11))
	if err != nil {
		b.Fatal(err)
	}
	lfr, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 11))
	if err != nil {
		b.Fatal(err)
	}
	return map[string]graph.EdgeList{"rmat": rmat, "lfr": lfr}
}

func perEdge(b *testing.B, el graph.EdgeList) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(el)), "ns/edge")
}

func BenchmarkBuild(b *testing.B) {
	for name, el := range benchInputs(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += len(graph.Build(el, 0).Nbr)
			}
			perEdge(b, el)
		})
	}
}

func BenchmarkSplitEdges(b *testing.B) {
	for name, el := range benchInputs(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += len(graph.SplitEdges(el, 2)[1])
			}
			perEdge(b, el)
		})
	}
}
