package algo

import (
	"context"
	"fmt"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/par"
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
		// A canceled run surfaces as whatever error the first rank hit
		// (a core cancellation error, or ErrClosed from the watchdog's
		// teardown); report it under the context's error so callers can
		// classify with errors.Is(err, context.Canceled).
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
	// Cancellation watchdog: the engines poll ctx at their deterministic
	// check points, but a rank that raced past its check parks in a
	// collective waiting for peers that already returned. Closing the
	// transports unblocks every parked exchange with ErrClosed, so
	// cancellation can never deadlock the group.
	watchDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				for _, tr := range trs {
					tr.Close()
				}
			case <-watchDone:
			}
		}()
	}
	var g par.Group
	for r := 0; r < opt.Ranks; r++ {
		r := r
		g.Go(func() error {
			if tw, ok := trs[r].(interface{ WaitTurn() error }); ok {
				// A serialized-turn rank must close as soon as it finishes
				// to hand its turn to the remaining ranks; the mem-based
				// transports instead stay open until every rank is done
				// (closing early would tear rounds out from under peers).
				defer trs[r].Close()
				if err := tw.WaitTurn(); err != nil {
					return fmt.Errorf("rank %d: %w", r, err)
				}
			}
			res, err := d.Detect(ctx, Graph{Comm: comm.New(trs[r]), Local: parts[r], N: n}, opt)
			if err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
			results[r] = res
			return nil
		})
	}
	err = g.Wait()
	close(watchDone)
	for _, tr := range trs {
		tr.Close()
	}
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
		model := opt.SimModel
		if model == (comm.CostModel{}) {
			model = comm.DefaultCostModel()
		}
		// Intra-rank threads would break the one-at-a-time measurement
		// premise of the simulated transport.
		opt.Threads = 1
		return comm.SimGroup(opt.Ranks, model), nil
	case "chaos":
		inner := comm.NewMemGroup(opt.Ranks)
		trs := make([]comm.Transport, opt.Ranks)
		for r, tr := range inner {
			trs[r] = comm.NewChaos(tr, opt.Chaos)
		}
		return trs, nil
	default:
		return nil, fmt.Errorf("algo: unknown transport %q (want mem, sim or chaos)", opt.Transport)
	}
}
