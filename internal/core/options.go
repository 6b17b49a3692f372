// Package core implements the paper's primary contribution: the sequential
// Louvain baseline (Algorithm 1) and the parallel Louvain algorithm for
// distributed memory (Algorithms 2–5) with its dynamic-threshold convergence
// heuristic (Section IV-B).
//
// The parallel engine runs one instance per rank over a comm.Comm; the
// in-process driver (RunInProcess) simulates a rank group with goroutines,
// and cmd/louvaind runs ranks as OS processes over TCP.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
)

// Options configures either engine. The zero value is usable.
type Options struct {
	// Ctx, when non-nil, cancels the run: every engine checks it at every
	// level start (the parallel engine also at every inner iteration) and
	// returns an error wrapping ErrCanceled and the context's error, with no
	// result. nil means never canceled. The check points are deterministic,
	// so an uncanceled context leaves runs bit-identical.
	Ctx context.Context

	// MaxLevels bounds outer iterations; 0 means 32.
	MaxLevels int
	// MaxInner bounds inner iterations per level; 0 means 64.
	MaxInner int
	// MinGain is the modularity improvement below which a loop stops;
	// 0 means 1e-6.
	MinGain float64
	// Seed randomizes the sequential sweep order; 0 keeps natural order.
	Seed uint64

	// Naive disables the threshold heuristic (parallel only): every vertex
	// with positive gain moves each iteration (the "parallel without
	// heuristic" baseline of Figure 4).
	Naive bool

	// Threads is the per-rank worker count (parallel Louvain, and PLM's
	// color-batched move phase; the other whole-graph engines are serial
	// and ignore it); 0 means 1.
	// CLI frontends resolve 0 to par.DefaultThreads() via ResolveThreads
	// before constructing Options, so the library default stays exactly 1.
	Threads int
	// Order selects the vertex visit order of the whole-graph move sweeps
	// (Sequential, PLM, Leiden, LNS): the zero value keeps each engine's
	// historical behavior (natural order, seeded shuffle when Seed is
	// set); see movesched.Ordering for the alternatives. The parallel
	// distributed engine ignores it. Exposed as -order on cmd/louvain.
	Order movesched.Ordering

	// CollectLevels, when true, gathers the per-level membership of every
	// original vertex into Result.Levels[i].Membership. Costs one
	// all-gather per level; leave false for scaling benches.
	CollectLevels bool

	// CheckInvariants verifies the algorithm's algebraic invariants after
	// every level (mass/member conservation, cross-rank assignment
	// agreement, modularity consistency and monotonicity, reconstruction
	// weight preservation — see internal/core/invariant.go) and aborts
	// with an ErrInvariant-wrapped error on violation. A few collectives
	// per level; every rank of a group must set it identically. Exposed
	// as the -check flag of cmd/louvain and cmd/louvaind, and forced on
	// in core's tests.
	CheckInvariants bool

	// Warm seeds the first level with an existing community assignment
	// (length = vertex count, labels in [0, n)) instead of singletons —
	// the dynamic-graph mode the paper motivates: after edges change,
	// re-detect starting from the previous run's Membership and converge
	// in a fraction of the from-scratch work.
	Warm []graph.V

	// Recorder, when non-nil, receives structured telemetry: one "level"
	// event per completed level from every engine (EmitLevel), and from the
	// parallel engine also one "iteration" event per inner iteration (moved,
	// ε, ΔQ̂, modularity, per-phase durations), one event per timed phase,
	// and traffic, reconstruction time and in-edge entries on its level
	// events. A single Recorder is safe to share across every rank of an
	// in-process group.
	Recorder *obs.Recorder

	// Metrics, when non-nil, registers live instruments on this registry:
	// the comm traffic counters and exchange histograms plus the
	// louvain_level / louvain_iteration / louvain_modularity gauges and
	// louvain_moves_total / louvain_iterations_total counters that
	// cmd/louvaind serves over /metrics. Shared registries across ranks
	// accumulate group totals.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxLevels <= 0 {
		o.MaxLevels = 32
	}
	if o.MaxInner <= 0 {
		o.MaxInner = 64
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-6
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

// canceled reports the run's cancellation state: Options.Ctx's error when a
// context is attached and done, nil otherwise. Engines poll it at their
// deterministic check points (level starts, inner iterations).
func (o *Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// ErrCanceled tags engine errors caused by Options.Ctx cancellation; the
// chain also wraps the context's own error, so callers may match either
// errors.Is(err, core.ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("detection canceled")

// ResolveThreads maps a CLI -threads value to the concrete per-rank worker
// count: explicit positives pass through, zero (and negatives) auto-select
// par.DefaultThreads(), the usable CPU count. Frontends call this before
// building Options — the library itself keeps treating non-positive Threads
// as exactly 1 so embedded zero-value runs stay single-threaded and
// bit-stable.
func ResolveThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return par.DefaultThreads()
}

// Stop says why a loop of a run ended: a level's inner loop (Level.Stop) or
// the descent over levels (Result.Stop). The code is the "stop" field of a
// level event.
type Stop uint8

const (
	StopNone Stop = iota // 0: not recorded (no level ran; a flat engine's level)
	// A level's inner loop:
	StopConverged // 1: nothing moved, plm's active set emptied, or lns's queue drained
	StopPatience  // 2: par-louvain's patience ran out, or the naive rule gained less than MinGain
	StopMaxInner  // 3: MaxInner iterations ran
	// The descent:
	StopNoMerge   // 4: a level merged nothing
	StopMinGain   // 5: a level gained less than MinGain
	StopMaxLevels // 6: MaxLevels levels ran
)

var stopNames = [...]string{"none", "converged", "patience", "max_inner", "no_merge", "min_gain", "max_levels"}

func (s Stop) String() string {
	if int(s) < len(stopNames) {
		return stopNames[s]
	}
	return fmt.Sprintf("stop(%d)", uint8(s))
}

// Level records one outer iteration's outcome.
type Level struct {
	// Q is the modularity at the end of the level.
	Q float64
	// Vertices is the number of active vertices (supervertices) the level
	// started with; Communities the number it produced.
	Vertices    int
	Communities int
	// InnerIterations and MovesPerIter trace the inner loop, Stop says why
	// it ended.
	InnerIterations int
	MovesPerIter    []int
	Stop            Stop
	// Membership maps every ORIGINAL vertex to its community after this
	// level (only populated with Options.CollectLevels).
	Membership []graph.V
}

// Result is the outcome of a detection run.
type Result struct {
	// Levels in outer-iteration order.
	Levels []Level
	// Membership maps every original vertex to its final community
	// (labels are arbitrary but consistent). Populated when
	// CollectLevels is set, and always by the sequential engine.
	Membership []graph.V
	// Q is the final modularity.
	Q float64
	// Stop says why the descent ended (StopNone when no level ran).
	Stop Stop
	// NumVertices and NumEdges describe the input.
	NumVertices int
	NumEdges    int64
	// Duration is total wall time; FirstLevel the time to finish the
	// first outer iteration (the TEPS denominator of Figure 9).
	Duration   time.Duration
	FirstLevel time.Duration
	// SimDuration and SimFirstLevel are the BSP-model simulated parallel
	// makespans (see comm.SimGroup); zero unless the run used the
	// simulated transport (RunSimulated).
	SimDuration   time.Duration
	SimFirstLevel time.Duration
	// Breakdown is the returning rank's total time per phase of Figure 8;
	// nil for the whole-graph engines, which time no phases. The per-level
	// and per-iteration phase times are the Recorder's phase events.
	Breakdown perf.Breakdown
	// Communication totals, summed across all ranks (zero for the
	// sequential engine): bytes put on the wire and BSP exchange rounds
	// executed per rank.
	CommBytes  uint64
	CommRounds uint64
	// RowsEvaluated counts the vertex rows the move phases actually scored —
	// par-louvain's findBest, the whole-graph engines' gain scan — summed over
	// ranks, levels and iterations (rows skipped as provably unchanged are not
	// counted). Deterministic for a fixed input and rank count.
	RowsEvaluated uint64
	// LeidenSplits counts the internally-disconnected communities the
	// refinement phase split, summed over all levels (Leiden engine only).
	LeidenSplits int
}

// EvolutionRatios returns |communities at level i| / |original vertices|,
// the Figure 4(b) series.
func (r *Result) EvolutionRatios() []float64 {
	out := make([]float64, len(r.Levels))
	for i, lv := range r.Levels {
		if r.NumVertices > 0 {
			out[i] = float64(lv.Communities) / float64(r.NumVertices)
		}
	}
	return out
}

// gainHistogram translates the per-vertex maximum gains m_u into the
// paper's update threshold ΔQ̂: a fixed log₂-bucketed histogram that can be
// summed across ranks with one reduction, then scanned from the top until
// the ε-fraction of vertices is covered.
type gainHistogram struct {
	counts [gainBins]uint64
}

const (
	gainBins    = 64
	gainMinExp  = -40 // bin 0 lower edge = 2^-40 ≈ 9e-13
	minMoveGain = 1e-12
)

func (h *gainHistogram) add(gain float64) {
	if gain < minMoveGain {
		return
	}
	e := math.Ilogb(gain) // floor(log2(gain))
	idx := e - gainMinExp
	if idx < 0 {
		idx = 0
	}
	if idx >= gainBins {
		idx = gainBins - 1
	}
	h.counts[idx]++
}

// threshold returns the smallest gain value such that approximately target
// vertices have gain >= threshold, scanning bins from the largest gains
// down. If every positive gain fits under target it returns minMoveGain
// (move everything positive).
func (h *gainHistogram) threshold(target uint64) float64 {
	if target == 0 {
		return math.Inf(1)
	}
	var cum uint64
	for i := gainBins - 1; i >= 0; i-- {
		cum += h.counts[i]
		if cum >= target {
			return math.Ldexp(1, i+gainMinExp) // lower edge of bin i
		}
	}
	return minMoveGain
}

// admitted returns how many of the counted gains a ΔQ̂ from threshold admits:
// those at or above both ΔQ̂ and minMoveGain, the vertices update moves.
func (h *gainHistogram) admitted(dqHat float64) uint64 {
	var n uint64
	for _, c := range h.counts[lowestAdmitted(dqHat):] {
		n += c
	}
	return n
}

// mass returns Σ counts[i]·2^(i+gainMinExp) over the bins a ΔQ̂ from threshold
// admits: every gain counted in bin i is at least its lower edge 2^(i+gainMinExp)
// (bin 0's start at minMoveGain, above it), so the mass is a lower bound on
// the predicted ΣΔQ of the moves update makes. It is built from the reduced
// integer counts and powers of two, so every rank computes the same bits.
func (h *gainHistogram) mass(dqHat float64) float64 {
	var m float64
	for i := lowestAdmitted(dqHat); i < gainBins; i++ {
		m += math.Ldexp(float64(h.counts[i]), i+gainMinExp)
	}
	return m
}

// lowestAdmitted returns the lowest bin a ΔQ̂ from threshold admits, gainBins
// for none. threshold returns a bin's lower edge, minMoveGain or +Inf, so the
// admitted gains fill whole bins: those whose lower edge is at least ΔQ̂, or
// every bin when ΔQ̂ is at most minMoveGain (as bin 0's edge 2⁻⁴⁰ is: its
// gains start at minMoveGain), or none for +Inf.
func lowestAdmitted(dqHat float64) int {
	if dqHat <= minMoveGain {
		return 0
	}
	for i := 0; i < gainBins; i++ {
		if math.Ldexp(1, i+gainMinExp) >= dqHat {
			return i
		}
	}
	return gainBins
}

// total returns the number of vertices with positive gain.
func (h *gainHistogram) total() uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}
