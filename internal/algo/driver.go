package algo

import (
	"context"
	"fmt"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
)

// Run executes the named engine across opt.Ranks in-process ranks over the
// transport kind opt.Transport and returns rank 0's result — the registry
// counterpart of core.RunInProcess that works for every engine. n <= 0
// infers the vertex count from el.
//
// A whole-graph engine asked for one rank over mem is given no group — the
// harness would split, gather, encode, copy, decode and broadcast to serve
// nobody — but called on el (wholeGraph.direct): same result to the bit,
// CommRounds and CommBytes 0. Only here is that choice made; Detect, more
// ranks, sim and chaos always run the harness.
func Run(ctx context.Context, name string, el graph.EdgeList, n int, opt Options) (*Result, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	if opt.Ranks <= 0 {
		opt.Ranks = 1
	}
	if n <= 0 {
		n = el.NumVertices()
	}
	var res *Result
	if w, ok := d.(wholeGraph); ok && opt.Ranks == 1 && (opt.Transport == "" || opt.Transport == "mem") {
		if res, err = w.direct(ctx, el, n, opt); err != nil {
			err = fmt.Errorf("rank 0: %w", err)
		}
	} else {
		res, err = runGroup(ctx, d, el, n, opt)
	}
	if err != nil {
		// A canceled run surfaces as whatever error the lowest failing rank
		// hit (a core cancellation error, or ErrClosed from the teardown of
		// comm.RunGroup's watchdog); report it under the context's error so
		// callers can classify with errors.Is(err, context.Canceled).
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("algo: %s canceled: %w (%v)", name, cerr, err)
		}
		return nil, err
	}
	return res, nil
}

// runGroup is Run on a group it builds: one goroutine per rank, each running
// d.Detect on its share of el.
func runGroup(ctx context.Context, d Detector, el graph.EdgeList, n int, opt Options) (*Result, error) {
	trs, err := newGroup(&opt)
	if err != nil {
		return nil, err
	}
	parts := graph.SplitEdges(el, opt.Ranks)
	results := make([]*Result, opt.Ranks)
	err = comm.RunGroup(ctx, trs, func(r int, c *comm.Comm) (err error) {
		results[r], err = d.Detect(ctx, Graph{Comm: c, Local: parts[r], N: n}, opt)
		return err
	})
	return results[0], err
}

// newGroup builds the in-process transport group Run drives the ranks over.
// It may adjust opt for transport constraints (the serialized sim transport
// requires single-threaded ranks).
func newGroup(opt *Options) ([]comm.Transport, error) {
	switch opt.Transport {
	case "", "mem":
		return comm.NewMemGroup(opt.Ranks), nil
	case "sim":
		// Intra-rank threads would break the one-at-a-time measurement
		// premise of the simulated transport.
		opt.Threads = 1
		return comm.SimGroup(opt.Ranks, comm.DefaultCostModel()), nil
	case "chaos":
		// One fixed fault schedule: rare delays, transient send errors and
		// duplicate deliveries, drawn from opt.Seed and counted on
		// opt.Metrics. A round fails only after five faulted attempts in a
		// row (p = 0.02⁵), and the faults never change the bytes a round
		// delivers, so the run returns the mem run's result to the bit.
		cfg := comm.ChaosConfig{
			Seed:      opt.Seed,
			DelayProb: 0.05,
			MaxDelay:  200 * time.Microsecond,
			ErrProb:   0.02,
			DupProb:   0.05,
			Metrics:   opt.Metrics,
		}
		trs := comm.NewMemGroup(opt.Ranks)
		for r, tr := range trs {
			trs[r] = comm.NewChaos(tr, cfg)
		}
		return trs, nil
	default:
		return nil, fmt.Errorf("algo: unknown transport %q (want mem, sim or chaos)", opt.Transport)
	}
}
