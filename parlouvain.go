// Package parlouvain is a scalable community detection library implementing
// the parallel Louvain algorithm of Que, Checconi, Petrini and Gunnels
// ("Scalable Community Detection with the Louvain Algorithm", IPDPS 2015).
//
// The library provides:
//
//   - the sequential Louvain baseline (Algorithm 1 of the paper);
//   - the distributed-memory parallel Louvain algorithm (Algorithms 2-5)
//     with its hash-based dual-table graph representation and the dynamic
//     threshold convergence heuristic (Equation 7);
//   - a rank-based message-passing runtime with in-process and TCP
//     transports (substituting for the paper's MPI/PAMI layer);
//   - the synthetic graph generators the paper evaluates on (R-MAT, BTER,
//     LFR, SBM);
//   - every evaluation metric of the paper's Table II (modularity, NMI,
//     F-measure, NVD, Rand, ARI, Jaccard, evolution ratio, TEPS).
//
// Quick start:
//
//	el, _ := parlouvain.LoadGraph("graph.txt")
//	res, err := parlouvain.DetectParallel(el, 4, parlouvain.Options{})
//	if err != nil { ... }
//	fmt.Println("modularity:", res.Q)
//	for v, c := range res.Membership { ... }
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package parlouvain

import (
	"context"
	"fmt"
	"io"
	"os"

	"parlouvain/internal/algo"
	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/dendro"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
)

// Core graph types, re-exported from the internal packages so that callers
// need only import parlouvain.
type (
	// V is a vertex identifier.
	V = graph.V
	// Edge is a weighted undirected edge.
	Edge = graph.Edge
	// EdgeList is an unordered multiset of edges.
	EdgeList = graph.EdgeList
	// Graph is the CSR form used by the sequential engine and metrics.
	Graph = graph.Graph

	// Options configures a detection run; see core.Options for fields.
	Options = core.Options
	// Result is a detection outcome (hierarchy levels, membership,
	// modularity, timings).
	Result = core.Result
	// Level is one outer-iteration record.
	Level = core.Level
	// Similarity bundles the Table III partition-comparison metrics.
	Similarity = metrics.Similarity
)

// Ordering selects the vertex visit order of the whole-graph move sweeps
// (Options.Order / -order): the engine's historical default, natural,
// seeded shuffle, or degree-ascending/descending.
type Ordering = movesched.Ordering

// Vertex orderings for Options.Order.
const (
	OrderDefault    = movesched.OrderDefault
	OrderNatural    = movesched.OrderNatural
	OrderShuffle    = movesched.OrderShuffle
	OrderDegreeAsc  = movesched.OrderDegreeAsc
	OrderDegreeDesc = movesched.OrderDegreeDesc
)

// ParseOrdering parses the -order flag values "default", "natural",
// "shuffle", "degree-asc" and "degree-desc".
func ParseOrdering(s string) (Ordering, error) { return movesched.ParseOrdering(s) }

// ResolveThreads maps a -threads flag value to the concrete per-rank worker
// count: positives pass through, 0 (and negatives) auto-select the usable
// CPU count.
func ResolveThreads(threads int) int { return core.ResolveThreads(threads) }

// BuildGraph constructs a CSR graph from an edge list; n <= 0 infers the
// vertex count.
func BuildGraph(el EdgeList, n int) *Graph { return graph.Build(el, n) }

// Detect runs the sequential Louvain algorithm (the paper's baseline).
func Detect(el EdgeList, opt Options) *Result {
	return core.Sequential(graph.Build(el, 0), opt)
}

// DetectGraph runs the sequential algorithm on an already-built graph.
func DetectGraph(g *Graph, opt Options) *Result {
	return core.Sequential(g, opt)
}

// DetectParallel runs the parallel Louvain algorithm across `ranks`
// simulated compute nodes (goroutine ranks connected by the in-process
// transport). Set opt.Threads for intra-rank parallelism. The returned
// Membership is populated when opt.CollectLevels is true.
func DetectParallel(el EdgeList, ranks int, opt Options) (*Result, error) {
	return core.RunInProcess(el, 0, ranks, opt)
}

// DetectIncremental re-detects communities after the graph changed,
// warm-starting every vertex from a previous assignment (typically the
// Membership of an earlier Result) instead of singletons — the
// dynamic-graph workflow the paper motivates. prev must cover the new
// graph's vertex count; use ExtendAssignment when vertices were added.
func DetectIncremental(el EdgeList, ranks int, prev []V, opt Options) (*Result, error) {
	opt.Warm = prev
	return core.RunInProcess(el, 0, ranks, opt)
}

// ExtendAssignment grows an assignment to cover n vertices, mapping each
// new vertex to its own singleton community.
func ExtendAssignment(prev []V, n int) []V {
	if n <= len(prev) {
		return prev[:n]
	}
	out := make([]V, n)
	copy(out, prev)
	for v := len(prev); v < n; v++ {
		out[v] = V(v)
	}
	return out
}

// DetectDistributed runs one rank of a multi-process detection over an
// established transport (see NewTCPTransport). local must contain this
// rank's destination-owned edges (SplitEdges applied to the global graph),
// and n the global vertex count. The group's lists must together be
// symmetric, as DetectAlgoDistributed describes.
func DetectDistributed(t Transport, local EdgeList, n int, opt Options) (*Result, error) {
	return core.Parallel(comm.New(t), local, n, opt)
}

// Observability layer, re-exported from internal/obs. Attach a Recorder
// and/or MetricsRegistry through Options.Recorder / Options.Metrics to
// capture structured run telemetry; see the README "Observability" section.
type (
	// Recorder collects structured events (one per inner iteration, per
	// timed phase and per level) and exports them as JSONL or Chrome
	// trace_event JSON.
	Recorder = obs.Recorder
	// TelemetryEvent is one structured record of a Recorder stream.
	TelemetryEvent = obs.Event
	// MetricsRegistry is a named set of live counters, gauges and
	// histograms with Prometheus text exposition.
	MetricsRegistry = obs.Registry
)

// NewRecorder returns an empty telemetry recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Transport is the rank-group communication abstraction; see NewTCPTransport
// and NewMemGroup.
type Transport = comm.Transport

// TCPConfig configures a TCP rank group member.
type TCPConfig = comm.TCPConfig

// NewTCPTransport joins a TCP rank group: the process becomes rank
// cfg.Rank of len(cfg.Addrs) ranks. All members must call it concurrently.
func NewTCPTransport(cfg TCPConfig) (Transport, error) { return comm.NewTCP(cfg) }

// NewMemGroup creates an in-process rank group for goroutine ranks.
func NewMemGroup(size int) []Transport { return comm.NewMemGroup(size) }

// Fault injection, re-exported from internal/comm: wrap any Transport in a
// seeded chaos layer to exercise a deployment against delays, stragglers,
// transient faults and duplicate deliveries. See the README "Fault tolerance
// & verification" section.
type (
	// ChaosConfig parameterizes a fault-injection wrapper.
	ChaosConfig = comm.ChaosConfig
	// ChaosStats snapshots the faults a wrapper has injected.
	ChaosStats = comm.ChaosStats
)

// ErrInjected tags errors produced by exhausting a chaos retry budget.
var ErrInjected = comm.ErrInjected

// ErrInvariant tags algorithm-invariant violations surfaced by runs with
// Options.CheckInvariants set; unwrap with errors.Is.
var ErrInvariant = core.ErrInvariant

// NewChaosTransport wraps inner with a deterministic, seeded fault injector:
// a run that completes under chaos is bit-identical to the fault-free run,
// and one whose faults exceed the retry budget fails fast with a rank- and
// round-attributed error instead of deadlocking.
func NewChaosTransport(inner Transport, cfg ChaosConfig) Transport { return comm.NewChaos(inner, cfg) }

// ChaosStatsOf extracts the fault snapshot of a transport produced by
// NewChaosTransport; ok is false for any other transport.
func ChaosStatsOf(tr Transport) (ChaosStats, bool) { return comm.ChaosStatsOf(tr) }

// LocalAddrs reserves n loopback addresses with free ports for starting a
// single-machine TCP rank group.
func LocalAddrs(n int) ([]string, error) { return comm.LocalAddrs(n) }

// SplitEdges routes each edge of el to the rank(s) that store it, in
// destination-owned orientation — the input format of DetectDistributed.
func SplitEdges(el EdgeList, ranks int) []EdgeList {
	return graph.SplitEdges(el, ranks)
}

// Modularity computes Newman's modularity (Equation 3) of an assignment.
func Modularity(g *Graph, assign []V) float64 {
	return metrics.Modularity(g, assign)
}

// CompareAssignments computes the paper's Table III similarity metrics
// between two community assignments over the same vertex set.
func CompareAssignments(a, b []V) (Similarity, error) {
	return metrics.Compare(a, b)
}

// CommunitySizes returns non-empty community sizes, largest first.
func CommunitySizes(assign []V) []int { return metrics.CommunitySizes(assign) }

// PartitionQuality bundles coverage, conductance and modularity.
type PartitionQuality = metrics.PartitionQuality

// Quality computes structural quality measures of an assignment beyond
// modularity (coverage, conductance).
func Quality(g *Graph, assign []V) (PartitionQuality, error) {
	return metrics.Quality(g, assign)
}

// GraphSummary holds descriptive graph statistics.
type GraphSummary = graph.Summary

// Summarize computes vertex/edge/degree/component statistics for a graph.
func Summarize(g *Graph) GraphSummary { return g.Summarize() }

// Dendrogram is the hierarchy view over a detection result.
type Dendrogram = dendro.Dendrogram

// BuildDendrogram extracts the community hierarchy from a result produced
// with Options.CollectLevels.
func BuildDendrogram(res *Result) (*Dendrogram, error) {
	return dendro.FromResult(res)
}

// SplitDisconnected refines an assignment so every community is internally
// connected (the Leiden-style post-pass); splitting a disconnected
// community never lowers modularity. Returns the refined assignment and
// how many extra communities the splits produced.
func SplitDisconnected(g *Graph, assign []V) ([]V, int) {
	return core.SplitDisconnected(g, assign)
}

// Algorithm registry, re-exported from internal/algo: every detection
// algorithm in the library — parallel and sequential Louvain, the
// Leiden-style variant, local neighbourhood search, label propagation and
// core-groups ensemble — implements one Detector interface and runs on any
// transport with the invariant checker and telemetry plane attached.
type (
	// AlgoOptions is the unified engine configuration (ranks, transport,
	// seed, bounds, invariants, telemetry); see internal/algo.Options.
	AlgoOptions = algo.Options
	// AlgoResult is the unified engine outcome: assignment, modularity,
	// per-level quality trajectory, timings and traffic totals.
	AlgoResult = algo.Result
	// AlgoInfo describes one registered engine (name, lineage, flags,
	// guarantees).
	AlgoInfo = algo.Info
	// AlgoLevel is one entry of an engine's quality trajectory.
	AlgoLevel = algo.LevelStat
)

// Algorithms lists every registered detection engine, sorted by name.
func Algorithms() []AlgoInfo { return algo.Infos() }

// DetectAlgo runs the named engine (or alias, e.g. "louvain", "seq") across
// opt.Ranks in-process ranks on the transport opt.Transport; an unknown name
// returns an error enumerating the registry.
func DetectAlgo(name string, el EdgeList, opt AlgoOptions) (*AlgoResult, error) {
	return algo.Run(context.Background(), name, el, 0, opt)
}

// DetectAlgoContext is DetectAlgo with cancellation: the engines observe ctx
// at their level/iteration check points, and the driver unblocks any rank
// parked in a collective, so a fired context always returns promptly with an
// error classifying as ctx's error.
func DetectAlgoContext(ctx context.Context, name string, el EdgeList, opt AlgoOptions) (*AlgoResult, error) {
	return algo.Run(ctx, name, el, 0, opt)
}

// DetectAlgoDistributed runs one rank of a multi-process detection with the
// named engine over an established transport (see NewTCPTransport). local
// must contain this rank's destination-owned edges and n the global vertex
// count; every rank must use the same engine and options.
//
// The group's lists must together be symmetric: each undirected edge {u,v}
// once per orientation — (U: u, V: v) in the list of v's owner and
// (U: v, V: u) in the list of u's owner, a self-loop once — which is what
// SplitEdges produces. par-louvain reads a vertex's in-edges as its
// out-edges; handed a directed or half-mirrored group of lists it returns an
// error saying the input is not symmetric, on every rank.
func DetectAlgoDistributed(name string, t Transport, local EdgeList, n int, opt AlgoOptions) (*AlgoResult, error) {
	return DetectAlgoDistributedContext(context.Background(), name, t, local, n, opt)
}

// DetectAlgoDistributedContext is DetectAlgoDistributed with cancellation:
// when ctx fires (a drain signal, a deadline) the engine stops at its next
// level/iteration check point, and a watchdog closes the transport so an
// exchange parked on remote peers cannot hang the shutdown. The returned
// error classifies as ctx's error (errors.Is) when the run was cancelled.
func DetectAlgoDistributedContext(ctx context.Context, name string, t Transport, local EdgeList, n int, opt AlgoOptions) (*AlgoResult, error) {
	d, err := algo.Get(name)
	if err != nil {
		return nil, err
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				t.Close()
			case <-watchDone:
			}
		}()
	}
	res, err := d.Detect(ctx, algo.Graph{Comm: comm.New(t), Local: local, N: n}, opt)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("parlouvain: %s canceled: %w (%v)", name, cerr, err)
		}
		return nil, err
	}
	return res, nil
}

// LoadGraph reads a text or binary edge-list file (format sniffed).
func LoadGraph(path string) (EdgeList, error) { return graph.LoadFile(path) }

// SaveGraph writes an edge list; binary when path ends in ".bin".
func SaveGraph(path string, el EdgeList) error { return graph.SaveFile(path, el) }

// WritePartition writes "vertex community" lines.
func WritePartition(w io.Writer, assign []V) error { return graph.WritePartition(w, assign) }

// LoadPartition reads a partition file written by WritePartition.
func LoadPartition(path string) ([]V, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadPartition(f)
}

// Generator re-exports: each returns an edge list and, where the model has
// one, the planted ground-truth assignment.

// LFRConfig parameterizes the LFR community benchmark generator.
type LFRConfig = gen.LFRConfig

// RMATConfig parameterizes the Graph500 R-MAT generator.
type RMATConfig = gen.RMATConfig

// BTERConfig parameterizes the block two-level Erdős–Rényi generator.
type BTERConfig = gen.BTERConfig

// SBMConfig parameterizes the planted-partition generator.
type SBMConfig = gen.SBMConfig

// LFR generates a benchmark graph with planted communities.
func LFR(cfg LFRConfig) (EdgeList, []V, error) { return gen.LFR(cfg) }

// DefaultLFR returns the paper's Figure 2 LFR parameter set for n vertices
// and mixing mu.
func DefaultLFR(n int, mu float64, seed uint64) LFRConfig { return gen.DefaultLFR(n, mu, seed) }

// RMAT generates a Graph500-style scale-free graph without community
// structure.
func RMAT(cfg RMATConfig) (EdgeList, error) { return gen.RMAT(cfg) }

// DefaultRMAT returns the Graph500 parameter set at the given scale.
func DefaultRMAT(scale int, seed uint64) RMATConfig { return gen.DefaultRMAT(scale, seed) }

// BTER generates a graph with tunable clustering (community) structure.
func BTER(cfg BTERConfig) (EdgeList, []V, error) { return gen.BTER(cfg) }

// DefaultBTER mirrors the paper's BTER weak-scaling configuration with
// block density rho.
func DefaultBTER(n int, rho float64, seed uint64) BTERConfig { return gen.DefaultBTER(n, rho, seed) }

// SBM generates a planted-partition graph.
func SBM(cfg SBMConfig) (EdgeList, []V, error) { return gen.SBM(cfg) }

// RingOfCliques builds k cliques of size s bridged in a ring.
func RingOfCliques(k, s int) (EdgeList, []V, error) { return gen.RingOfCliques(k, s) }
