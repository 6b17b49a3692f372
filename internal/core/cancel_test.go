package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/obs"
)

// TestParallelCancelWithinLevel cancels a single-rank run once its first
// inner iteration is done, at the context's third poll (after the level
// start's and the first iteration's), and asserts the engine observes it at
// that iteration boundary — within the level, not at its end — returning an
// error that wraps both ErrCanceled and the context's own error.
func TestParallelCancelWithinLevel(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := newPollCancel(2)
	defer ctx.cancel()
	rec := obs.NewRecorder()
	_, err = RunInProcess(el, 0, 1, Options{Ctx: ctx, Recorder: rec})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error does not wrap ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	iterations := 0
	for _, e := range rec.Events() {
		if e.Name == "iteration" {
			iterations++
		}
	}
	if iterations != 1 {
		t.Errorf("engine ran %d iterations after cancellation, want exactly 1", iterations)
	}
}

// TestParallelPreCanceled asserts a context canceled before the run starts
// stops it at the first level boundary.
func TestParallelPreCanceled(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunInProcess(el, 0, 1, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: %v, want context.Canceled", err)
	}
}

// TestParallelCancelAtLevelStart is par-louvain's side of the one cancel rule
// (TestHierarchyCancel is the whole-graph engines'): a context seen done at a
// level start fails the run with ErrCanceled and the context's error, and no
// level runs after that check — none when it fired before the run, none after
// level 0 when it fired at level 1's start. At one rank the engine polls the
// context once per level start and once per inner iteration.
func TestParallelCancelAtLevelStart(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(500, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	full := must(t)(RunInProcess(el, 0, 1, Options{}))
	if len(full.Levels) < 2 {
		t.Fatalf("the input runs %d levels, want at least 2", len(full.Levels))
	}
	for _, polls := range []int{0, 1 + full.Levels[0].InnerIterations} {
		t.Run(fmt.Sprintf("after=%d", polls), func(t *testing.T) {
			rec := obs.NewRecorder()
			res, err := RunInProcess(el, 0, 1, Options{
				Ctx:      newPollCancel(polls),
				Recorder: rec,
			})
			if res != nil || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("res = %v, err = %v; want no result, ErrCanceled and context.Canceled", res, err)
			}
			if got := levelEvents(rec); len(got) != min(polls, 1) {
				t.Errorf("levels %v ran, want the %d before the check", got, min(polls, 1))
			}
		})
	}
}

// TestParallelCancelMidRun cancels multi-rank runs at several (level,
// iteration) points — from the first rank's poll of the next iteration, after
// the other ranks have had time to pass their own check of it and park in its
// first collective — and before the run starts. The group must still return,
// with an error that wraps both ErrCanceled and the context's error, however
// the ranks it stopped ended. The input's level 0 runs the full 64 inner iterations, so
// every point is reached; at μ = 0.3 level 0 now ends before iteration 30.
func TestParallelCancelMidRun(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(2000, 0.6, 7))
	if err != nil {
		t.Fatal(err)
	}
	groups := []struct {
		name  string
		ranks int
		run   func(opt Options) (*Result, error)
	}{
		{"mem/ranks=2", 2, func(opt Options) (*Result, error) { return RunInProcess(el, 0, 2, opt) }},
		{"mem/ranks=4", 4, func(opt Options) (*Result, error) { return RunInProcess(el, 0, 4, opt) }},
		{"sim/ranks=2", 2, func(opt Options) (*Result, error) { return RunSimulated(el, 0, 2, opt, comm.CostModel{}) }},
	}
	for _, g := range groups {
		for _, at := range [][2]int{{0, 1}, {0, 2}, {0, 5}, {0, 20}, {0, 30}} {
			name := fmt.Sprintf("%s/level=%d/iter=%d", g.name, at[0], at[1])
			t.Run(name, func(t *testing.T) {
				// Every rank polls once at the level start and once per
				// iteration, and no rank polls iteration i+1 before every
				// rank has polled iteration i.
				ctx := newPollCancel(g.ranks * (1 + at[1]))
				cancel := ctx.cancel
				defer cancel()
				var fired atomic.Bool
				ctx.cancel = func() {
					time.Sleep(2 * time.Millisecond)
					cancel()
					fired.Store(true)
				}
				var err error
				guard(t, 30*time.Second, name, func() { _, err = g.run(Options{Ctx: ctx}) })
				if !fired.Load() {
					t.Fatal("the run never reached the cancellation point")
				}
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want ErrCanceled and context.Canceled", err)
				}
			})
		}
		// A context cancelled before the group starts: the watchdog closes
		// the group while its ranks are still starting up.
		t.Run(g.name+"/pre-canceled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var err error
			guard(t, 30*time.Second, g.name+"/pre-canceled", func() { _, err = g.run(Options{Ctx: ctx}) })
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want ErrCanceled and context.Canceled", err)
			}
		})
	}
}
