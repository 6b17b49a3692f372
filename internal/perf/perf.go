// Package perf provides the phase timing breakdown (Figure 8) and TEPS
// accounting (Figure 9) used by the experiment harness. Timers are plain
// accumulators keyed by phase name so the algorithm can be instrumented
// without global state.
package perf

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase names instrumented by the parallel Louvain implementation. The
// first five are the labels of Figure 8; the figure folds the gain threshold
// into UPDATE and leaves the modularity measurement unlabelled, and the last
// two name them so that the five inner phases add up to REFINE.
const (
	PhaseRefine         = "REFINE"
	PhaseReconstruction = "GRAPH RECONSTRUCTION"
	PhaseFindBest       = "FIND BEST COMMUNITY"
	PhaseUpdate         = "UPDATE COMMUNITY INFORMATION"
	PhasePropagation    = "STATE PROPAGATION"
	PhaseThreshold      = "GAIN THRESHOLD"
	PhaseComputeQ       = "COMPUTE MODULARITY"
)

// Breakdown accumulates elapsed wall time per phase. It is not safe for
// concurrent use; each rank keeps its own and the driver merges them.
type Breakdown struct {
	total map[string]time.Duration
	order []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{total: map[string]time.Duration{}}
}

// Add accumulates d under phase.
func (b *Breakdown) Add(phase string, d time.Duration) {
	if _, ok := b.total[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.total[phase] += d
}

// Time runs fn, accumulating its elapsed time under phase.
func (b *Breakdown) Time(phase string, fn func()) {
	start := time.Now()
	fn()
	b.Add(phase, time.Since(start))
}

// Get returns the accumulated time of a phase.
func (b *Breakdown) Get(phase string) time.Duration {
	return b.total[phase]
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.total {
		t += d
	}
	return t
}

// Phases returns the phase names in first-use order.
func (b *Breakdown) Phases() []string {
	return append([]string(nil), b.order...)
}

// Merge adds the phases of o into b (used to combine per-rank breakdowns;
// for wall-clock semantics prefer Max).
func (b *Breakdown) Merge(o *Breakdown) {
	for _, p := range o.order {
		b.Add(p, o.total[p])
	}
}

// Max takes, per phase, the maximum of b and o: the wall-clock combiner for
// ranks that execute phases in lockstep. Every phase of o enters b's order
// even when its duration is zero, so Phases() is stable across Merge/Max
// regardless of which rank saw a phase first.
func (b *Breakdown) Max(o *Breakdown) {
	for _, p := range o.order {
		if _, ok := b.total[p]; !ok {
			b.order = append(b.order, p)
			b.total[p] = 0
		}
		if o.total[p] > b.total[p] {
			b.total[p] = o.total[p]
		}
	}
}

// String renders a sorted table of phases with percentages.
func (b *Breakdown) String() string {
	total := b.Total()
	type row struct {
		name string
		d    time.Duration
	}
	rows := make([]row, 0, len(b.total))
	for name, d := range b.total {
		rows = append(rows, row{name, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	var sb strings.Builder
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.d) / float64(total)
		}
		fmt.Fprintf(&sb, "%-30s %12v %5.1f%%\n", r.name, r.d.Round(time.Microsecond), pct)
	}
	return sb.String()
}

// TEPS computes traversed edges per second as the paper does for Figure 9:
// input edge count divided by the time to finish the first level.
func TEPS(edges int64, firstLevel time.Duration) float64 {
	if firstLevel <= 0 {
		return 0
	}
	return float64(edges) / firstLevel.Seconds()
}

// Speedup is the ratio baseline/parallel, the Figure 7 metric.
func Speedup(baseline, parallel time.Duration) float64 {
	if parallel <= 0 {
		return 0
	}
	return float64(baseline) / float64(parallel)
}
