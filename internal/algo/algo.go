// Package algo unifies every community-detection algorithm in the repo
// behind one Detector interface and a registry, so any algorithm runs on
// any transport (mem, TCP, sim, chaos) with the invariant checker,
// telemetry plane and traffic accounting for free.
//
// A Detector runs at the *rank* level — one instance per rank of a
// comm-connected group, exactly like core.Parallel — over the rank's
// destination-owned edge partition. Engines that are inherently
// whole-graph (sequential Louvain, PLM, Leiden, LNS, PLP, ensemble) run
// through the rank-0 harness (rank0.go): the group gathers the edge
// partitions to rank 0, rank 0 computes, and the outcome is broadcast so
// every rank returns an identical Result; the gather and broadcast flow
// through the group's transport, so fault injection and the BSP cost model
// apply to them too.
//
// The in-process driver (Run) mirrors core.RunInProcess for any registered
// engine: it builds a mem, sim or chaos transport group, splits the edge
// list, and runs the ranks through comm.RunGroup — except that a whole-graph
// engine on one mem rank is simply called. Distributed deployments
// (cmd/louvaind) call Detect directly with their own transport.
package algo

import (
	"context"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
)

// Graph is the rank-local view of a detection input: this rank's
// destination-owned edges (one element of graph.SplitEdges), the global
// vertex count, and the rank group the engine communicates through. A
// single-rank group (comm.NewMemGroup(1)) degenerates to the whole graph.
type Graph struct {
	// Comm is the established rank-group handle. Required.
	Comm *comm.Comm
	// Local holds this rank's destination-owned edges.
	Local graph.EdgeList
	// N is the global vertex count.
	N int
}

// Options is the unified configuration shared by every engine. The zero
// value is usable. Engines ignore fields that do not apply to them (the
// Info of each engine documents which flags it honors).
type Options struct {
	// Ranks is the rank-group size built by the in-process driver (Run);
	// 0 means 1. Ignored by Detect, which runs on the group in Graph.Comm.
	Ranks int
	// Transport selects the in-process driver's transport kind: "mem"
	// (default), "sim" (serialized BSP group under
	// comm.DefaultCostModel()) or "chaos" (mem under newGroup's fixed
	// fault schedule). Ignored by Detect.
	Transport string

	// Threads is the per-rank worker count (parallel Louvain, and the
	// shared-memory move phases of plm/plp).
	Threads int
	// Order selects the vertex visit order of the whole-graph move sweeps
	// (see movesched.Ordering); the zero value keeps each engine's
	// historical behavior.
	Order movesched.Ordering
	// Seed drives randomized sweep orders and tie-breaking; 0 keeps the
	// engine's natural order.
	Seed uint64
	// MaxLevels bounds outer iterations of hierarchical engines; 0 means
	// the engine default.
	MaxLevels int
	// MaxIter bounds inner iterations per level (Louvain family) or total
	// sweeps (lpa); 0 means the engine default.
	MaxIter int
	// Runs is the ensemble size (ensemble only); 0 means 4.
	Runs int
	// Naive disables the parallel Louvain convergence heuristic.
	Naive bool

	// Warm seeds modularity engines with a previous assignment.
	Warm []graph.V

	// CheckInvariants verifies the unified post-conditions after the run —
	// assignment shape, cross-rank agreement, recomputed-modularity
	// consistency, level-Q monotonicity where the engine guarantees it —
	// plus the per-level algebraic invariants inside the parallel Louvain
	// engine. Violations return errors wrapping core.ErrInvariant.
	CheckInvariants bool
	// Recorder receives structured telemetry events; every engine emits at
	// least per-level (or per-sweep/per-run) events and timed phases, so
	// -trace and Chrome-trace output work uniformly.
	Recorder *obs.Recorder
	// Metrics registers live instruments (comm traffic plus engine gauges)
	// on this registry.
	Metrics *obs.Registry
}

// coreOptions converts the unified options to the parallel/sequential
// Louvain engine's native form. ctx propagates cancellation into the
// engine's level/iteration check points; collect forces per-level
// membership collection (needed whenever the caller wants
// Result.Assignment).
func (o Options) coreOptions(ctx context.Context, collect bool) core.Options {
	return core.Options{
		Ctx:             ctx,
		MaxLevels:       o.MaxLevels,
		MaxInner:        o.MaxIter,
		Seed:            o.Seed,
		Naive:           o.Naive,
		Threads:         o.Threads,
		Order:           o.Order,
		CollectLevels:   collect,
		CheckInvariants: o.CheckInvariants,
		Warm:            o.Warm,
		Recorder:        o.Recorder,
		Metrics:         o.Metrics,
	}
}

// LevelStat is one entry of an engine's quality trajectory: for
// hierarchical engines one outer level, for flat engines the whole run.
type LevelStat struct {
	// Q is the modularity at the end of the level (NaN-free; flat
	// engines report the final assignment's modularity).
	Q float64
	// Vertices is the number of active (super)vertices the level started
	// with; Communities the number it produced.
	Vertices    int
	Communities int
	// Iterations counts inner iterations (sweeps) of the level; Stop says
	// why they ended (core.StopNone for flat engines).
	Iterations int
	Stop       core.Stop
}

// Result is the unified outcome of any engine.
type Result struct {
	// Algo is the registered engine name that produced the result.
	Algo string
	// Assignment maps every vertex to its community (labels arbitrary but
	// consistent, always in [0, NumVertices)).
	Assignment []graph.V
	// Q is the final Newman modularity of Assignment.
	Q float64
	// Levels is the per-level quality trajectory; Stop says why the Louvain
	// family's descent ended (core.StopNone for the other engines).
	Levels []LevelStat
	Stop   core.Stop
	// NumVertices and NumEdges describe the input.
	NumVertices int
	NumEdges    int64
	// Duration is this rank's wall time for the whole detection;
	// FirstLevel the time to finish the first level (hierarchical engines,
	// rank 0 of the computing engine).
	Duration   time.Duration
	FirstLevel time.Duration
	// Breakdown is this rank's total time per phase when the engine times
	// phases (par-louvain; nil for every other engine).
	Breakdown perf.Breakdown
	// CommBytes is the group-total bytes put on the wire; CommRounds the
	// BSP exchange rounds this rank executed.
	CommBytes  uint64
	CommRounds uint64
	// Extra carries engine-specific scalars (e.g. ensemble "core_groups",
	// lpa "sweeps").
	Extra map[string]float64
}

// Communities returns the number of distinct labels in the assignment.
func (r *Result) Communities() int { return countLabels(r.Assignment) }

// countLabels returns the number of distinct labels in a labeling.
func countLabels(labels []graph.V) int {
	seen := make(map[graph.V]struct{}, 64)
	for _, c := range labels {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Info describes a registered engine for dispatch, documentation and the
// invariant checker.
type Info struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary (paper lineage included).
	Description string
	// Flags lists the Options fields / CLI flags the engine honors beyond
	// the universal set (ranks, transport, seed, check, trace, metrics).
	Flags string
	// Hierarchical engines emit a multi-level Q trajectory.
	Hierarchical bool
	// MonotoneQ engines guarantee a non-decreasing per-level Q, enforced
	// under CheckInvariants (parallel Louvain is exempted under Naive).
	MonotoneQ bool
	// Rank0 engines compute on rank 0 after an edge gather and broadcast
	// the result; the alternative is a truly distributed engine.
	Rank0 bool
}

// Detector is one community-detection engine, running as one rank of the
// group in Graph.Comm. Every rank of a group must call Detect with the same
// options; every rank returns an identical Result (or the same error
// class). Cancellation via ctx is best-effort at phase boundaries.
type Detector interface {
	Name() string
	Info() Info
	Detect(ctx context.Context, g Graph, opt Options) (*Result, error)
}
