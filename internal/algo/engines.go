package algo

import (
	"context"
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/ensemble"
	"parlouvain/internal/graph"
	"parlouvain/internal/labelprop"
	"parlouvain/internal/metrics"
)

func init() {
	Register(parLouvain{})
	Register(lpaEngine{})
	for _, e := range wholeGraphs {
		Register(e)
	}
}

// fromCore translates a Louvain-family result into the unified form.
func fromCore(name string, cres *core.Result) *Result {
	res := &Result{
		Algo:        name,
		Assignment:  cres.Membership,
		Q:           cres.Q,
		NumVertices: cres.NumVertices,
		NumEdges:    cres.NumEdges,
		Duration:    cres.Duration,
		FirstLevel:  cres.FirstLevel,
		Breakdown:   cres.Breakdown,
		CommBytes:   cres.CommBytes,
		CommRounds:  cres.CommRounds,
	}
	res.Levels = make([]LevelStat, 0, len(cres.Levels))
	for _, lv := range cres.Levels {
		res.Levels = append(res.Levels, LevelStat{
			Q: lv.Q, Vertices: lv.Vertices, Communities: lv.Communities,
			Iterations: lv.InnerIterations,
		})
	}
	return res
}

// parLouvain is the paper's distributed-memory parallel Louvain algorithm
// (Algorithms 2-5), the only truly distributed engine: computation stays on
// the owning ranks end to end.
type parLouvain struct{}

func (parLouvain) Name() string { return "par-louvain" }

func (parLouvain) Info() Info {
	return Info{
		Name:         "par-louvain",
		Description:  "distributed parallel Louvain (Algorithms 2-5, dynamic-threshold heuristic)",
		Flags:        "-threads -naive -warm -max-levels -max-inner",
		Hierarchical: true,
		MonotoneQ:    true,
	}
}

func (e parLouvain) Detect(ctx context.Context, g Graph, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cres, err := core.Parallel(g.Comm, g.Local, g.N, opt.coreOptions(ctx, true))
	if err != nil {
		return nil, err
	}
	return finish(g, opt, e.Info(), fromCore(e.Name(), cres))
}

// wholeGraph is an engine that computes on the whole graph in one address
// space. compute is all that tells one from another; how the graph reaches it
// and the result leaves — the rank-0 harness on a real group, a plain call on
// a group of one — is rank0.go's business. No extra scalars is a nil map.
type wholeGraph struct {
	info    Info
	compute computeFunc
}

type computeFunc func(ctx context.Context, full *graph.Graph, opt Options) (*core.Result, map[string]float64, error)

func (e wholeGraph) Name() string { return e.info.Name }

func (e wholeGraph) Info() Info { return e.info }

// Detect runs the engine as one rank of g.Comm, through the rank-0 harness.
func (e wholeGraph) Detect(ctx context.Context, g Graph, opt Options) (*Result, error) {
	res, err := e.runRank0(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	return finish(g, opt, e.info, res)
}

// wholeGraphs lists them. The Louvain family shares core's hierarchy driver
// and differs in the move phase: plm decides moves on Threads workers against
// frozen state and replays them serially in schedule order, so it is
// bit-identical across thread counts; the others are serial.
var wholeGraphs = []wholeGraph{
	{info: Info{
		Name:         "seq-louvain",
		Description:  "sequential Louvain baseline (Algorithm 1)",
		Flags:        "-warm -max-levels -max-inner",
		Hierarchical: true, MonotoneQ: true, Rank0: true,
	}, compute: louvainFamily(core.Sequential, nil)},
	{info: Info{
		Name:         "plm",
		Description:  "shared-memory parallel Louvain (Staudt & Meyerhenke PLM): color-batched decide/apply move phase with active-vertex pruning",
		Flags:        "-threads -order -warm -max-levels -max-inner",
		Hierarchical: true, MonotoneQ: true, Rank0: true,
	}, compute: louvainFamily(core.PLM, nil)},
	{info: Info{
		Name:         "leiden",
		Description:  "Leiden-style Louvain: move + refine-within-communities + aggregate (connected communities)",
		Flags:        "-warm -max-levels -max-inner",
		Hierarchical: true, MonotoneQ: true, Rank0: true,
	}, compute: louvainFamily(core.Leiden, func(cres *core.Result) map[string]float64 {
		return map[string]float64{"splits": float64(cres.LeidenSplits)}
	})},
	{info: Info{
		Name:         "lns",
		Description:  "local neighbourhood search (Browet 2013): queue-driven moves, aggregation per pass",
		Flags:        "-warm -max-levels -max-inner",
		Hierarchical: true, MonotoneQ: true, Rank0: true,
	}, compute: louvainFamily(core.LNS, nil)},
	{info: Info{
		Name:        "plp",
		Description: "shared-memory parallel label propagation (Staudt & Meyerhenke PLP): synchronous pruned sweeps",
		Flags:       "-threads -max-inner (sweep cap)",
		Rank0:       true,
	}, compute: computePLP},
	{info: Info{
		Name:        "ensemble",
		Description: "core-groups ensemble (Ovelgönne & Geyer-Schulz): seeded weak runs vote, agreement contracted, full solve on the contraction",
		Flags:       "-runs (ensemble size) -max-levels -max-inner",
		Rank0:       true,
	}, compute: computeEnsemble},
}

// louvainFamily is the compute of a Louvain-family engine: run names the
// core entry point that picks the move phase, extra (nil for none) the
// engine-specific scalars it reports.
func louvainFamily(run func(*graph.Graph, core.Options) *core.Result, extra func(*core.Result) map[string]float64) computeFunc {
	return func(ctx context.Context, full *graph.Graph, opt Options) (*core.Result, map[string]float64, error) {
		if err := core.CheckWarm(opt.Warm, full.N); err != nil {
			return nil, nil, err
		}
		cres := run(full, opt.coreOptions(ctx, true))
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", core.ErrCanceled, err)
		}
		if extra == nil {
			return cres, nil, nil
		}
		return cres, extra(cres), nil
	}
}

// flatResult is the one-level result of an engine with no hierarchy of its
// own: the labeling, its measured modularity, and iterations sweeps or runs.
func flatResult(full *graph.Graph, labels []graph.V, q float64, iterations int) *core.Result {
	return &core.Result{
		Membership:  labels,
		Q:           q,
		NumVertices: full.N,
		NumEdges:    int64(full.NumEdges()),
		Levels: []core.Level{{
			Q: q, Vertices: full.N, Communities: countLabels(labels),
			InnerIterations: iterations,
		}},
	}
}

// computePLP is shared-memory parallel label propagation (Staudt &
// Meyerhenke's PLP): synchronous pruned sweeps over Threads workers, with the
// same seeded tie-breaking as the distributed lpa engine.
func computePLP(ctx context.Context, full *graph.Graph, opt Options) (*core.Result, map[string]float64, error) {
	labels, moves := labelprop.Shared(full, labelprop.Options{
		MaxSweeps: opt.MaxIter,
		Seed:      opt.Seed,
		Recorder:  opt.Recorder,
	}, max(opt.Threads, 1))
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", core.ErrCanceled, err)
	}
	// LPA has no modularity objective; report the measured modularity of
	// the labeling so quality is comparable across engines.
	cres := flatResult(full, labels, metrics.Modularity(full, labels), len(moves))
	return cres, map[string]float64{"sweeps": float64(len(moves))}, nil
}

// computeEnsemble is core-groups ensemble detection (Ovelgönne &
// Geyer-Schulz).
func computeEnsemble(ctx context.Context, full *graph.Graph, opt Options) (*core.Result, map[string]float64, error) {
	assign, q, groups, err := ensemble.Detect(full, ensemble.Options{
		Runs: opt.Runs,
		Seed: opt.Seed,
		Final: core.Options{
			Ctx:       ctx,
			MaxLevels: opt.MaxLevels,
			MaxInner:  opt.MaxIter,
			MinGain:   opt.MinGain,
			Seed:      opt.Seed,
		},
		Recorder: opt.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	cres := flatResult(full, assign, q, ensemble.EffectiveRuns(opt.Runs))
	return cres, map[string]float64{"core_groups": float64(groups)}, nil
}

// lpaEngine is distributed synchronous label propagation (Raghavan et al.),
// running on the same 1D decomposition and exchange planes as the parallel
// Louvain engine.
type lpaEngine struct{}

func (lpaEngine) Name() string { return "lpa" }

func (lpaEngine) Info() Info {
	return Info{
		Name:        "lpa",
		Description: "distributed synchronous label propagation (Raghavan et al.)",
		Flags:       "-max-inner (sweep cap)",
	}
}

func (e lpaEngine) Detect(ctx context.Context, g Graph, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	labels, moves, err := labelprop.Parallel(g.Comm, g.Local, g.N, labelprop.Options{
		MaxSweeps: opt.MaxIter,
		Seed:      opt.Seed,
		Recorder:  opt.Recorder,
		Metrics:   opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	// LPA has no modularity objective; report the measured modularity of
	// its labeling so quality is comparable across engines.
	q, err := distModularity(g.Comm, g.Local, g.N, labels)
	if err != nil {
		return nil, err
	}
	edges, err := g.Comm.AllReduceUint64(uint64(singleCounted(g.Local)), comm.OpSum)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Algo:        e.Name(),
		Assignment:  labels,
		Q:           q,
		NumVertices: g.N,
		NumEdges:    int64(edges),
		Duration:    time.Since(start),
		Extra:       map[string]float64{"sweeps": float64(len(moves))},
	}
	res.Levels = []LevelStat{{
		Q: q, Vertices: g.N, Communities: res.Communities(), Iterations: len(moves),
	}}
	return finish(g, opt, e.Info(), res)
}
