package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"parlouvain/internal/par"
)

// turnTaker is implemented by transports whose ranks run one at a time
// (SimGroup, and Chaos wrapped around it): a rank waits for its first turn
// before touching the transport.
type turnTaker interface {
	WaitTurn() error
	// abort closes the whole group in one step from outside its ranks:
	// every rank is marked closed, a rank parked in WaitTurn or Exchange
	// wakes with ErrClosed, and no turn is handed on, so no rank runs a
	// round by itself while the group is torn down.
	abort()
}

// RunGroup runs body once per rank of an in-process group — rank r on its
// own goroutine, over New(trs[r]) — and returns once every rank has returned.
// It owns the group's lifecycle:
//
//   - a rank whose transport takes turns waits for its first turn before body
//     and closes its transport as it returns, handing the CPU onward; other
//     transports stay open until the last rank returns, because closing one
//     tears down the rounds its peers are still in;
//   - when ctx is done, every transport is closed (a turn-taking group is
//     aborted as a whole), so a rank that raced past its cancellation check
//     and parked in a collective gets ErrClosed instead of waiting for peers
//     that already returned;
//   - every transport is closed once the last rank has returned;
//   - a rank that panics fails with a *par.Panic ("panic: …" and the stack of
//     the goroutine that panicked, a par worker's included), and the group is
//     closed as on cancellation, so that its peers are not left parked in a
//     collective the panicking rank will never join.
//
// A failing rank's error comes back as "rank r: err". When several ranks
// fail, the lowest one's is returned, so the report does not depend on
// scheduling — the lowest panicking rank's, if any rank panicked, rather than
// the ErrClosed its peers got from the teardown.
func RunGroup(ctx context.Context, trs []Transport, body func(r int, c *Comm) error) error {
	errs := make([]error, len(trs))
	abort := func() {
		for _, tr := range trs {
			if tt, ok := tr.(turnTaker); ok {
				tt.abort()
			} else {
				tr.Close()
			}
		}
	}
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tt, ok := tr.(turnTaker); ok {
				defer tr.Close()
				if errs[r] = tt.WaitTurn(); errs[r] != nil {
					return
				}
			}
			errs[r] = runRank(r, tr, body, abort)
		}()
	}
	stop := context.AfterFunc(ctx, abort)
	wg.Wait()
	stop()
	closeGroup(trs)
	for _, panics := range []bool{true, false} {
		for r, err := range errs {
			var p *par.Panic
			if err != nil && errors.As(err, &p) == panics {
				return fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	return nil
}

// runRank runs body for rank r and turns a panic into its error, a
// *par.Panic, calling abort before the rank returns.
func runRank(r int, tr Transport, body func(r int, c *Comm) error, abort func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = par.Recovered(p)
			abort()
		}
	}()
	return body(r, New(tr))
}

func closeGroup(trs []Transport) {
	for _, tr := range trs {
		tr.Close()
	}
}
