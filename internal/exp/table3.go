package exp

import (
	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// Table3 reproduces the paper's Table III: similarity of the communities
// found by the parallel algorithm to those of the sequential algorithm on
// Amazon, ND-Web and two LFR graphs (μ = 0.4, 0.5). The paper reports NVD
// near 0 and the other metrics near 1 (NMI highest, e.g. 0.97-0.99).
func Table3(sizeFactor float64, ranks int) ([]Table, error) {
	if ranks <= 0 {
		ranks = 8
	}
	t := Table{
		Title:  "Table III: quality comparison on community structure (parallel vs sequential)",
		Header: []string{"Graph", "NMI", "F-measure", "NVD", "RI", "ARI", "JI"},
	}
	type input struct {
		name string
		el   graph.EdgeList
		n    int
	}
	var inputs []input
	for _, name := range []string{"Amazon", "ND-Web"} {
		s, err := StandinByName(name)
		if err != nil {
			return nil, err
		}
		el, _, err := s.Generate(sizeFactor)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{name, el, el.NumVertices()})
	}
	for _, mu := range []float64{0.4, 0.5} {
		n := int(10000 * sizeFactor)
		if n < 500 {
			n = 500
		}
		el, _, err := gen.LFR(gen.DefaultLFR(n, mu, uint64(200+int(mu*10))))
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{"LFR(mu=" + f2(mu) + ")", el, n})
	}
	for _, in := range inputs {
		g := graph.Build(in.el, in.n)
		seq, err := core.Sequential(g, core.Options{})
		if err != nil {
			return nil, err
		}
		par, err := core.RunInProcess(in.el, in.n, ranks, core.Options{CollectLevels: true})
		if err != nil {
			return nil, err
		}
		sim, err := metrics.Compare(par.Membership, seq.Membership)
		if err != nil {
			return nil, err
		}
		t.AddRow(in.name, f4(sim.NMI), f4(sim.FMeasure), f4(sim.NVD), f4(sim.Rand), f4(sim.ARI), f4(sim.Jaccard))
	}
	t.Notes = append(t.Notes, "paper reports NMI 0.97-0.99, NVD 0.04-0.15, RI ~1, ARI 0.68-0.94, JI 0.51-0.89")
	return []Table{t}, nil
}
