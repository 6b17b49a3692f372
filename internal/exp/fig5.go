package exp

import (
	"fmt"

	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// Fig5 reproduces Figure 5: the community size distribution found by the
// sequential and parallel algorithms on the Amazon and ND-Web stand-ins.
// The paper's shape: few large communities, many small ones, with the
// parallel distribution closely matching the sequential one (paper example:
// largest communities 358 vs 278 and 5020 vs 5286).
func Fig5(sizeFactor float64, ranks int) ([]Table, error) {
	if ranks <= 0 {
		ranks = 8
	}
	const bins = 12
	var out []Table
	for _, name := range []string{"Amazon", "ND-Web"} {
		s, err := StandinByName(name)
		if err != nil {
			return nil, err
		}
		el, _, err := s.Generate(sizeFactor)
		if err != nil {
			return nil, err
		}
		n := el.NumVertices()
		g := graph.Build(el, n)
		seq, err := core.Sequential(g, core.Options{})
		if err != nil {
			return nil, err
		}
		par, err := core.RunInProcess(el, n, ranks, core.Options{CollectLevels: true})
		if err != nil {
			return nil, err
		}
		seqSizes := metrics.CommunitySizes(seq.Membership)
		parSizes := metrics.CommunitySizes(par.Membership)
		seqHist := metrics.SizeHistogram(seqSizes, bins)
		parHist := metrics.SizeHistogram(parSizes, bins)

		t := Table{
			Title:  "Figure 5: community size distribution, " + name,
			Header: []string{"size bin", "sequential count", "parallel count"},
		}
		for b := 0; b < bins; b++ {
			lo := 1 << b
			hi := 1<<(b+1) - 1
			label := fmt.Sprintf("[%d,%d]", lo, hi)
			if b == bins-1 {
				label = fmt.Sprintf("[%d,inf)", lo)
			}
			if seqHist[b] == 0 && parHist[b] == 0 {
				continue
			}
			t.AddRow(label, d(seqHist[b]), d(parHist[b]))
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"largest community: sequential %d, parallel %d; communities: %d vs %d",
			seqSizes[0], parSizes[0], len(seqSizes), len(parSizes)))
		out = append(out, t)
	}
	return out, nil
}
