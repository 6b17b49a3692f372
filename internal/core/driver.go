package core

import (
	"context"
	"errors"
	"fmt"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
)

// RunInProcess simulates a rank group on one machine: it splits el across
// `ranks` in-process transports, runs Parallel on one goroutine per rank,
// and returns rank 0's result. n <= 0 infers the vertex count from el.
// This is the driver behind all single-machine experiments; the TCP path
// (cmd/louvaind) uses Parallel directly.
func RunInProcess(el graph.EdgeList, n, ranks int, opt Options) (*Result, error) {
	return runInProcess(el, n, comm.NewMemGroup(ranks), opt)
}

// RunSimulated runs the rank group on the serialized BSP-model transport
// (comm.SimGroup): algorithm results are identical to RunInProcess, and the
// returned Result additionally carries SimDuration/SimFirstLevel — the
// simulated parallel makespans used by the scaling experiments on hosts
// whose real core count cannot exhibit parallel speedup (see DESIGN.md §2).
func RunSimulated(el graph.EdgeList, n, ranks int, opt Options, model comm.CostModel) (*Result, error) {
	// Intra-rank threads would break the one-at-a-time measurement
	// premise of the simulated transport.
	opt.Threads = 1
	return runInProcess(el, n, comm.SimGroup(ranks, model), opt)
}

// runInProcess runs Parallel on every rank of trs, rank r on its share of
// el, and returns rank 0's result. A run that Options.Ctx cancelled always
// reports ErrCanceled and the context's error, even when the failing rank
// reported is one the cancellation watchdog unblocked with comm.ErrClosed.
func runInProcess(el graph.EdgeList, n int, trs []comm.Transport, opt Options) (*Result, error) {
	if n <= 0 {
		n = el.NumVertices()
	}
	parts := graph.SplitEdges(el, len(trs))
	results := make([]*Result, len(trs))
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	err := comm.RunGroup(ctx, trs, func(r int, c *comm.Comm) (err error) {
		results[r], err = Parallel(c, parts[r], n, opt)
		return err
	})
	if err != nil {
		if cerr := opt.canceled(); cerr != nil && !errors.Is(err, ErrCanceled) {
			return nil, fmt.Errorf("core: %w: %w (%v)", ErrCanceled, cerr, err)
		}
		return nil, err
	}
	// Ranks run in lockstep; the simulated makespan is the slowest rank's.
	// The phase breakdown stays rank 0's own.
	for _, res := range results[1:] {
		results[0].SimDuration = max(results[0].SimDuration, res.SimDuration)
	}
	return results[0], nil
}
