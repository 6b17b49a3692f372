package exp

import (
	"fmt"

	"parlouvain/internal/core"
	"parlouvain/internal/graph"
)

// fig4Graphs is the subset of stand-ins shown in Figure 4.
var fig4Graphs = []string{"Amazon", "DBLP", "ND-Web", "YouTube", "LiveJournal", "Wikipedia"}

// Fig4 reproduces Figure 4: per-outer-iteration modularity (a) and
// evolution ratio (b) for the sequential algorithm, the parallel algorithm
// with the convergence heuristic, and the naive parallel algorithm without
// it. The paper's claims: the heuristic version tracks (occasionally
// beats) sequential modularity, the naive version converges poorly, and
// strong-structure graphs merge >90% of vertices in the first iteration.
func Fig4(sizeFactor float64, ranks int) ([]Table, error) {
	if ranks <= 0 {
		ranks = 8
	}
	qt := Table{
		Title:  fmt.Sprintf("Figure 4a: modularity per outer loop (P=%d)", ranks),
		Header: []string{"Graph", "Variant", "L1", "L2", "L3", "L4", "L5", "final Q"},
	}
	et := Table{
		Title:  "Figure 4b: evolution ratio per outer loop (lower is better)",
		Header: []string{"Graph", "Variant", "L1", "L2", "L3", "L4", "L5"},
	}
	for _, name := range fig4Graphs {
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
		par, err := core.RunInProcess(el, n, ranks, core.Options{})
		if err != nil {
			return nil, err
		}
		// The naive variant is run under the same bounded budget the
		// heuristic variant used, as in the paper's comparison.
		naive, err := core.RunInProcess(el, n, ranks, core.Options{Naive: true, MaxInner: 16, MaxLevels: 6})
		if err != nil {
			return nil, err
		}

		for _, v := range []struct {
			label string
			res   *core.Result
		}{
			{"sequential", seq},
			{"parallel+heuristic", par},
			{"parallel naive", naive},
		} {
			qRow := []string{name, v.label}
			eRow := []string{name, v.label}
			ratios := v.res.EvolutionRatios()
			for l := 0; l < 5; l++ {
				if l < len(v.res.Levels) {
					qRow = append(qRow, f3(v.res.Levels[l].Q))
					eRow = append(eRow, f4(ratios[l]))
				} else {
					qRow = append(qRow, "-")
					eRow = append(eRow, "-")
				}
			}
			qRow = append(qRow, f4(v.res.Q))
			qt.AddRow(qRow...)
			et.AddRow(eRow...)
		}
	}
	qt.Notes = append(qt.Notes,
		"paper: heuristic parallel is on par with sequential; naive parallel converges to much lower Q")
	et.Notes = append(et.Notes,
		"paper: strong-structure graphs merge >90% of vertices in the first outer iteration (ratio < 0.1)")
	return []Table{qt, et}, nil
}
