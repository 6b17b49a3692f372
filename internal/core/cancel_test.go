package core

import (
	"context"
	"errors"
	"testing"

	"parlouvain/internal/gen"
)

// TestParallelCancelWithinLevel cancels a single-rank run from the
// TraceMoves callback of the first inner iteration and asserts the engine
// observes it at the next iteration boundary — within the level, not at its
// end — returning an error that wraps both ErrCanceled and the context's
// own error.
func TestParallelCancelWithinLevel(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iterations := 0
	opt := Options{
		Ctx: ctx,
		TraceMoves: func(level, iter, moved, active int) {
			iterations++
			if level == 0 && iter == 1 {
				cancel()
			}
		},
	}
	_, err = RunInProcess(el, 0, 1, opt)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error does not wrap ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
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
