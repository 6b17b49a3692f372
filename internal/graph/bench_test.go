package graph_test

import (
	"bytes"
	"io"
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

// perRecord is perEdge over records laid out: InRows sees each non-self edge
// twice, once at each endpoint's owner.
func perRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
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

// BenchmarkInRows lays out both ranks' rows of the inputs split two ways, the
// load lpa runs at every rank.
func BenchmarkInRows(b *testing.B) {
	for name, el := range benchInputs(b) {
		n := el.NumVertices()
		parts := graph.SplitEdges(el, 2)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r, local := range parts {
					_, src, _, err := graph.Partition{Rank: r, Size: 2}.InRows(local, n)
					if err != nil {
						b.Fatal(err)
					}
					sink += len(src)
				}
			}
			perRecord(b, len(parts[0])+len(parts[1]))
		})
	}
}

// textInputs are the ingest inputs in text form, plus the LFR edges with
// fractional weights so the weight column is timed too.
func textInputs(b *testing.B) map[string][]byte {
	b.Helper()
	out := map[string][]byte{}
	for name, el := range benchInputs(b) {
		out[name] = writeText(b, el)
		if name == "lfr" {
			w := append(graph.EdgeList(nil), el...)
			for i := range w {
				w[i].W = 0.25 + float64(i%13)/8
			}
			out["lfr-weighted"] = writeText(b, w)
		}
	}
	return out
}

func writeText(b *testing.B, el graph.EdgeList) []byte {
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, el); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadText parses the text inputs; MB/s is over the text's bytes.
func BenchmarkReadText(b *testing.B) {
	for name, text := range textInputs(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				el, err := graph.ReadText(bytes.NewReader(text))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(el)
			}
		})
	}
}

// BenchmarkWriteText writes the text inputs; MB/s is over the bytes written.
func BenchmarkWriteText(b *testing.B) {
	for name, text := range textInputs(b) {
		el, err := graph.ReadText(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if err := graph.WriteText(io.Discard, el); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
