// Package perf names the timed phases of Figure 8 and provides the TEPS
// (Figure 9) and speedup (Figure 7) arithmetic used by the experiment
// harness. The phase events of an obs.Recorder are the per-level and
// per-iteration record of phase time; Breakdown holds only a run's totals.
package perf

import "time"

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

// Breakdown is one rank's total wall time per phase over a run. A nil
// Breakdown reads as zero for every phase.
type Breakdown map[string]time.Duration

// Get returns the accumulated time of a phase.
func (b Breakdown) Get(phase string) time.Duration { return b[phase] }

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
