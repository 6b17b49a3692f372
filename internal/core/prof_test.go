package core

import (
	"strings"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/perf"
)

// BenchmarkProfilePar is the profiling harness for the paper's engine: one
// op is a full 8-rank solve, run it with -cpuprofile / -memprofile. Next to
// ns/op it reports the breakdown the profile should agree with — ms per op
// in REFINE, its five labelled parts and reconstruction (rank 0's).
func BenchmarkProfilePar(b *testing.B) {
	el, _, err := gen.LFR(gen.DefaultLFR(20000, 0.35, 2024))
	if err != nil {
		b.Fatal(err)
	}
	total := perf.Breakdown{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunInProcess(el, 20000, 8, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for phase, d := range res.Breakdown {
			total[phase] += d
		}
	}
	for _, phase := range append([]string{perf.PhaseRefine, perf.PhaseReconstruction}, refinePhases...) {
		unit := strings.ReplaceAll(strings.ToLower(phase), " ", "-") + "-ms/op"
		b.ReportMetric(total.Get(phase).Seconds()*1e3/float64(b.N), unit)
	}
}
