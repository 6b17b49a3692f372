package metrics_test

import (
	"testing"

	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

var sink float64

// BenchmarkModularity scores the partition seq-louvain's first level ends in
// on the two graphs the repo's benchmark solves whole-graph: R-MAT scale 14
// and LFR n=40 000 (`-short`, the CI smoke, shrinks both).
func BenchmarkModularity(b *testing.B) {
	scale, n := 14, 40000
	if testing.Short() {
		scale, n = 10, 2000
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(scale, 11))
	if err != nil {
		b.Fatal(err)
	}
	// The benchmark's LFR family (bench/graphload.go): bounded degrees and
	// community sizes, so the solve has three levels and not two.
	lfrCfg := gen.LFRConfig{N: n, AvgDegree: 16, MaxDegree: 100, Gamma: 2.5, Beta: 1.5, Mu: 0.3, MinCommunity: 32, MaxCommunity: 1000, Seed: 11}
	if testing.Short() {
		lfrCfg.MaxDegree, lfrCfg.MinCommunity, lfrCfg.MaxCommunity = 50, 16, n/8
	}
	lfr, _, err := gen.LFR(lfrCfg)
	if err != nil {
		b.Fatal(err)
	}
	for name, el := range map[string]graph.EdgeList{"rmat": rmat, "lfr": lfr} {
		b.Run(name, func(b *testing.B) {
			g := graph.Build(el, 0)
			res, err := core.Sequential(g, core.Options{MaxLevels: 1})
			if err != nil {
				b.Fatal(err)
			}
			assign := res.Membership
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += metrics.Modularity(g, assign)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Nbr)/2), "ns/edge")
		})
	}
}
