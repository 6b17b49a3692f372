package exp

import (
	"fmt"
	"time"

	"parlouvain/internal/core"
	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
)

// Fig8 reproduces the execution-time breakdown of Figure 8 on the UK-2007
// stand-in (the paper's largest real-world graph): (a) REFINE vs GRAPH
// RECONSTRUCTION per outer loop and (b) FIND BEST COMMUNITY / UPDATE
// COMMUNITY INFORMATION / STATE PROPAGATION per inner iteration of the
// first outer loop. Paper claims: the first outer loop is >90% of total
// time, reconstruction is negligible, FIND BEST and UPDATE shrink with the
// inner iteration while STATE PROPAGATION stays flat.
//
// Fig. 8b and the first-outer-loop note read rank 0's phase events — the
// same events the -trace flag records; Fig. 8a reads rank 0's run totals.
func Fig8(sizeFactor float64, ranks int) ([]Table, error) {
	if ranks <= 0 {
		ranks = 8
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

	rec := obs.NewRecorder()
	res, err := core.RunInProcess(el, n, ranks, core.Options{Recorder: rec})
	if err != nil {
		return nil, err
	}

	// Rank 0's phase events of the inner iterations (Iter >= 1) give
	// Fig. 8b's columns; the figure folds GAIN THRESHOLD into UPDATE.
	column := map[string]int{perf.PhaseFindBest: 0, perf.PhaseThreshold: 1, perf.PhaseUpdate: 1, perf.PhasePropagation: 2}
	var level0 [][3]time.Duration
	perLevelWall := map[int]time.Duration{}
	for _, e := range rec.Events() {
		col, ok := column[e.Name]
		if !ok || e.Rank != 0 || e.Iter < 1 {
			continue
		}
		dur := time.Duration(e.Dur) * time.Microsecond
		if e.Level == 0 {
			for len(level0) < e.Iter {
				level0 = append(level0, [3]time.Duration{})
			}
			level0[e.Iter-1][col] += dur
		}
		perLevelWall[e.Level] += dur
	}

	a := Table{
		Title:  fmt.Sprintf("Figure 8a: outer-loop breakdown, UK-2007 stand-in (P=%d)", ranks),
		Header: []string{"phase", "time", "share"},
	}
	refine := res.Breakdown.Get(perf.PhaseRefine)
	recon := res.Breakdown.Get(perf.PhaseReconstruction)
	tot := refine + recon
	a.AddRow(perf.PhaseRefine, refine.Round(time.Microsecond).String(), pct(refine, tot))
	a.AddRow(perf.PhaseReconstruction, recon.Round(time.Microsecond).String(), pct(recon, tot))
	if len(perLevelWall) > 0 {
		var all time.Duration
		for _, d := range perLevelWall {
			all += d
		}
		a.Notes = append(a.Notes, fmt.Sprintf("first outer loop: %s of %s inner-phase time (%s)",
			perLevelWall[0].Round(time.Microsecond), all.Round(time.Microsecond), pct(perLevelWall[0], all)))
	}

	b := Table{
		Title:  "Figure 8b: inner-loop breakdown of the first outer loop",
		Header: []string{"inner iter", perf.PhaseFindBest, perf.PhaseUpdate, perf.PhasePropagation},
	}
	for i, t := range level0 {
		b.AddRow(d(i+1),
			t[0].Round(time.Microsecond).String(),
			t[1].Round(time.Microsecond).String(),
			t[2].Round(time.Microsecond).String())
	}
	b.Notes = append(b.Notes,
		"paper: FIND BEST and UPDATE decrease as vertices settle; STATE PROPAGATION is roughly constant")
	return []Table{a, b}, nil
}

func pct(x, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(x)/float64(total))
}
