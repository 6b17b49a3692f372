// Package ensemble implements core-groups ensemble detection in the style
// of Ovelgönne & Geyer-Schulz (the paper's ref [12], the Hadoop-based
// comparison system): run several cheap, independently-seeded weak
// detections, contract the vertices that every run agrees on ("core
// groups"), and run a full detection on the much smaller contracted graph.
// The ensemble step stabilizes the randomized base algorithm and often
// improves final modularity on noisy graphs. Runs are surfaced through the
// internal/algo registry as the "ensemble" engine.
package ensemble

import (
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
)

// Options configures an ensemble run.
type Options struct {
	// Runs is the ensemble size (weak detections); 0 means 4.
	Runs int
	// Seed derives the per-run seeds.
	Seed uint64
	// Final configures the full detection on the contracted graph.
	Final core.Options
	// Recorder, when non-nil, receives one "ensemble_run" event per weak
	// detection (running core-group count) and one "ensemble_final" event
	// for the contracted solve.
	Recorder *obs.Recorder
}

// EffectiveRuns resolves the ensemble size the scheme will execute for a
// configured Runs value (0 or negative means the default of 4).
func EffectiveRuns(runs int) int {
	if runs <= 0 {
		return 4
	}
	return runs
}

// Detect runs the ensemble scheme on g and returns the final membership,
// its modularity, and the number of contracted core groups (the size of the
// intermediate graph).
func Detect(g *graph.Graph, opt Options) ([]graph.V, float64, int, error) {
	if g.N == 0 {
		return []graph.V{}, 0, 0, nil
	}
	runs := EffectiveRuns(opt.Runs)

	// 1. Weak detections: one Louvain level each, different sweep orders.
	groups := make([]graph.V, g.N) // running overlap signature
	for i := range groups {
		groups[i] = 0
	}
	for r := 0; r < runs; r++ {
		var ts int64
		if opt.Recorder != nil {
			ts = opt.Recorder.Now()
		}
		res, err := core.Sequential(g, core.Options{MaxLevels: 1, Seed: opt.Seed + uint64(r)*0x9E3779B9 + 1})
		if err != nil {
			return nil, 0, 0, err
		}
		// Refine the overlap: two vertices stay together only if this
		// run also put them together. Combine (group, community) pairs
		// into new compact group ids.
		pairToGroup := map[uint64]graph.V{}
		for v := 0; v < g.N; v++ {
			key := hashfn.Pack32(uint32(groups[v]), uint32(res.Membership[v]))
			id, ok := pairToGroup[key]
			if !ok {
				id = graph.V(len(pairToGroup))
				pairToGroup[key] = id
			}
			groups[v] = id
		}
		if opt.Recorder != nil {
			opt.Recorder.Emit(obs.Event{
				Name: "ensemble_run", Iter: r + 1,
				TS: ts, Dur: opt.Recorder.Now() - ts,
				Fields: map[string]float64{"groups": float64(len(pairToGroup))},
			})
		}
	}

	// 2. Contract core groups into supervertices.
	numGroups := 0
	for _, gr := range groups {
		if int(gr) >= numGroups {
			numGroups = int(gr) + 1
		}
	}
	contracted := core.Condense(g, groups, numGroups)

	// 3. Full detection on the contracted graph, projected back.
	var tsFinal int64
	if opt.Recorder != nil {
		tsFinal = opt.Recorder.Now()
	}
	final, err := core.Sequential(contracted, opt.Final)
	if err != nil {
		return nil, 0, 0, err
	}
	membership := make([]graph.V, g.N)
	for v := 0; v < g.N; v++ {
		membership[v] = final.Membership[groups[v]]
	}
	q := metrics.Modularity(g, membership)
	if opt.Recorder != nil {
		opt.Recorder.Emit(obs.Event{
			Name: "ensemble_final",
			TS:   tsFinal, Dur: opt.Recorder.Now() - tsFinal,
			Fields: map[string]float64{"q": q, "core_groups": float64(numGroups)},
		})
	}
	return membership, q, numGroups, nil
}
