package exp

import (
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
)

// Table4 reproduces the paper's Table IV: end-to-end time and modularity
// on UK-2007 compared across implementations. The paper compared against
// published results (504.9s on 4 sockets, 8 minutes on 2 sockets, hours on
// Hadoop) and reported 44.90s / Q=0.996 on 128 Power7 nodes. Our stand-in
// comparison uses the sequential engine as the single-node literature proxy
// and sweeps the parallel engine over rank counts, preserving the shape:
// parallel is many times faster at equal or better modularity.
func Table4(sizeFactor float64, rankSteps []int) ([]Table, error) {
	if len(rankSteps) == 0 {
		rankSteps = []int{2, 8, 32}
	}
	s, err := StandinByName("UK-2007")
	if err != nil {
		return nil, err
	}
	el, _, err := s.Generate(sizeFactor)
	if err != nil {
		return nil, err
	}
	n := el.NumVertices()
	g := graph.Build(el, n)

	t := Table{
		Title:  "Table IV: performance on the UK-2007 stand-in",
		Header: []string{"Implementation", "Time", "Modularity", "Processors"},
	}
	seqStart := time.Now()
	seq, err := core.Sequential(g, core.Options{})
	if err != nil {
		return nil, err
	}
	seqTime := time.Since(seqStart)
	t.AddRow("sequential Louvain (baseline)", seqTime.Round(time.Millisecond).String(), f4(seq.Q), "1 thread")

	model := comm.DefaultCostModel()
	for _, p := range rankSteps {
		res, err := core.RunSimulated(el, n, p, core.Options{}, model)
		if err != nil {
			return nil, err
		}
		t.AddRow("parallel Louvain (this paper)",
			res.SimDuration.Round(time.Millisecond).String(), f4(res.Q), fmt.Sprintf("%d ranks (simulated)", p))
	}
	t.Notes = append(t.Notes,
		"paper's Table IV: [7] 504.9s/4xE7-8870; [10] 8min/2xE5-2680; [12] hours/50 nodes; this paper 44.90s, Q=0.996, 128 P7 nodes")
	return []Table{t}, nil
}
