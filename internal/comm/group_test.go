package comm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"parlouvain/internal/par"
)

// groupKinds are the in-process groups RunGroup drives: mem, sim (ranks take
// turns), and chaos (delays on every round) over mem and over sim.
var groupKinds = []struct {
	name string
	open func(size int) []Transport
}{
	{"mem", NewMemGroup},
	{"sim", func(size int) []Transport { return SimGroup(size, CostModel{}) }},
	{"chaos", func(size int) []Transport { return withChaos(NewMemGroup(size)) }},
	{"chaos-sim", func(size int) []Transport { return withChaos(SimGroup(size, CostModel{})) }},
}

func withChaos(trs []Transport) []Transport {
	for r, tr := range trs {
		trs[r] = NewChaos(tr, ChaosConfig{Seed: 3, DelayProb: 0.5, MaxDelay: 100 * time.Microsecond})
	}
	return trs
}

// TestRunGroupNoGoroutineLeak runs each kind of group through RunGroup four
// ways — every rank succeeds; two ranks return an error; the context is
// cancelled while all ranks but the last sit in a collective and the last
// waits for the cancellation; the context is cancelled before the group
// starts — and checks the reported error and that the goroutine count
// returns to where it was.
func TestRunGroupNoGoroutineLeak(t *testing.T) {
	const size = 3
	boom := errors.New("boom")
	cases := []struct {
		name string
		body func(ctx context.Context, r int, c *Comm) error
		// cancel, when set, is handed the context's cancel function just
		// before RunGroup starts.
		cancel func(context.CancelFunc)
		// check judges RunGroup's error.
		check func(err error) error
	}{
		{
			name: "success",
			body: func(_ context.Context, _ int, c *Comm) error {
				for i := 0; i < 4; i++ {
					if err := emptyRound(c); err != nil {
						return err
					}
				}
				return nil
			},
			check: func(err error) error { return err },
		},
		{
			name: "rank error",
			body: func(_ context.Context, r int, c *Comm) error {
				if err := emptyRound(c); err != nil {
					return err
				}
				if r > 0 {
					return fmt.Errorf("%w at rank %d", boom, r)
				}
				return nil
			},
			check: func(err error) error {
				if !errors.Is(err, boom) || err.Error() != "rank 1: boom at rank 1" {
					return fmt.Errorf("err = %v, want rank 1's error, wrapped", err)
				}
				return nil
			},
		},
		{
			name:   "canceled in a collective",
			cancel: func(cancel context.CancelFunc) { time.AfterFunc(20*time.Millisecond, cancel) },
			body:   waitInBarrier,
			check:  closedOrCanceled,
		},
		{
			name:   "pre-canceled",
			cancel: func(cancel context.CancelFunc) { cancel() },
			body:   waitInBarrier,
			check:  closedOrCanceled,
		},
	}
	for _, kind := range groupKinds {
		for _, tc := range cases {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.cancel != nil {
					tc.cancel(cancel)
				}
				err := runGroupGuarded(t, ctx, kind.open(size), func(r int, c *Comm) error { return tc.body(ctx, r, c) })
				if err := tc.check(err); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// runGroupGuarded runs RunGroup under a 30 s hang guard, returns its error,
// and fails the test unless the goroutine count then returns to where it was.
func runGroupGuarded(t *testing.T, ctx context.Context, trs []Transport, body func(r int, c *Comm) error) error {
	t.Helper()
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- RunGroup(ctx, trs, body) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunGroup did not return within 30s")
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the group returned, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
	return err
}

// TestRunGroupRankPanic: rank 1 — alone, or with every other rank but 0 —
// panics between two collectives while rank 0 goes on into the second.
// RunGroup must return a panic — rank 1's when it panics alone, not rank 0's
// ErrClosed, though rank 0 is lower — with the panic value and stack, leave no
// peer parked, and leak no goroutine, on every kind of group at 2–4 ranks.
// When several ranks panic, the first abort can reach rank 1 while it is still
// in the first collective, so the panic reported may be a higher rank's.
func TestRunGroupRankPanic(t *testing.T) {
	for _, kind := range groupKinds {
		for _, size := range []int{2, 3, 4} {
			for _, all := range []bool{false, true} {
				name := fmt.Sprintf("%s/ranks=%d/rank 1", kind.name, size)
				if all {
					name = fmt.Sprintf("%s/ranks=%d/all but rank 0", kind.name, size)
				}
				t.Run(name, func(t *testing.T) {
					err := runGroupGuarded(t, context.Background(), kind.open(size), func(r int, c *Comm) error {
						if err := emptyRound(c); err != nil {
							return err
						}
						if r == 1 || all && r > 0 {
							panic(fmt.Sprintf("rank %d gives up", r))
						}
						return emptyRound(c)
					})
					var p *par.Panic
					var r int
					if errors.As(err, &p) {
						fmt.Sscanf(err.Error(), "rank %d:", &r)
					}
					if r < 1 || !all && r != 1 || !strings.HasPrefix(err.Error(), fmt.Sprintf("rank %d: panic: rank %d gives up\n", r, r)) || !strings.Contains(err.Error(), "TestRunGroupRankPanic") {
						t.Errorf("err = %v, want a panicking rank's panic with its stack, as a *par.Panic", err)
					}
				})
			}
		}
	}
}

// waitInBarrier parks every rank but the last in an empty round; the last waits
// for the context and returns its error.
func waitInBarrier(ctx context.Context, r int, c *Comm) error {
	if r == c.Size()-1 {
		<-ctx.Done()
		return ctx.Err()
	}
	return emptyRound(c)
}

// closedOrCanceled accepts the errors a cancelled group may report: the
// watchdog unblocks parked ranks with ErrClosed, and on sim the last rank's
// return may complete their round first.
func closedOrCanceled(err error) error {
	if !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("err = %v, want ErrClosed or context.Canceled", err)
	}
	return nil
}
