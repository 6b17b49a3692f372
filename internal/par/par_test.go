package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 100, 1023} {
			hits := make([]int32, n)
			For(n, threads, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestForChunkedCoversRangeExactlyOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 4} {
		for _, chunk := range []int{0, 1, 3, 64} {
			n := 777
			hits := make([]int32, n)
			ForChunked(n, threads, chunk, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d chunk=%d: index %d visited %d times", threads, chunk, i, h)
				}
			}
		}
	}
}

func TestForThreadIDsDisjoint(t *testing.T) {
	const n, threads = 1000, 8
	owner := make([]int32, n)
	For(n, threads, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&owner[i], int32(tid))
		}
	})
	// Chunks must be contiguous and ordered by thread id.
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("thread ids not monotone: owner[%d]=%d < owner[%d]=%d", i, owner[i], i-1, owner[i-1])
		}
	}
}

func TestGroupPropagatesFirstError(t *testing.T) {
	var g Group
	want := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return want })
	g.Go(func() error { return nil })
	if err := g.Wait(); !errors.Is(err, want) {
		t.Errorf("Wait() = %v, want %v", err, want)
	}
}

func TestGroupNoError(t *testing.T) {
	var g Group
	var count int32
	for i := 0; i < 10; i++ {
		g.Go(func() error {
			atomic.AddInt32(&count, 1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
	if count != 10 {
		t.Errorf("ran %d bodies, want 10", count)
	}
}

func TestClampThreads(t *testing.T) {
	cases := []struct{ threads, n, want int }{
		{0, 100, DefaultThreads()},
		{4, 2, 2},
		{4, 100, 4},
		{-1, 1, 1},
	}
	for _, c := range cases {
		if got := clampThreads(c.threads, c.n); got != c.want {
			t.Errorf("clampThreads(%d,%d) = %d, want %d", c.threads, c.n, got, c.want)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(1<<14, threads, func(_, lo, hi int) {
					s := 0.0
					for j := lo; j < hi; j++ {
						s += float64(j)
					}
					_ = s
				})
			}
		})
	}
}

// TestForCarriesWorkerPanic: a body that panics on a worker goroutine panics
// the caller after every chunk has run, as a *Panic holding the value and the
// worker's stack; at one thread the body runs inline and its panic is its own.
func TestForCarriesWorkerPanic(t *testing.T) {
	loops := []struct {
		name string
		run  func(threads int, body func(t, lo, hi int))
	}{
		{"For", func(threads int, body func(t, lo, hi int)) { For(64, threads, body) }},
		{"ForChunked", func(threads int, body func(t, lo, hi int)) { ForChunked(64, threads, 8, body) }},
	}
	for _, l := range loops {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", l.name, threads), func(t *testing.T) {
				var ran atomic.Int64
				got := func() (v any) {
					defer func() { v = recover() }()
					l.run(threads, func(_, lo, hi int) {
						ran.Add(int64(hi - lo))
						if lo <= 40 && 40 < hi {
							panic("chunk of 40")
						}
					})
					return nil
				}()
				if threads == 1 {
					if got != "chunk of 40" {
						t.Fatalf("recovered %v, want the body's own value", got)
					}
					return
				}
				p, ok := got.(*Panic)
				if !ok {
					t.Fatalf("recovered %T %v, want a *Panic", got, got)
				}
				if p.Value != "chunk of 40" || !strings.Contains(p.Error(), "panic: chunk of 40\n") || !strings.Contains(string(p.Stack), "TestForCarriesWorkerPanic") {
					t.Errorf("carried %q", p.Error())
				}
				if ran.Load() != 64 {
					t.Errorf("the chunks covered %d indices before the panic was raised, want 64", ran.Load())
				}
			})
		}
	}
}

// TestForFirstPanicWins: when every worker panics, the caller gets exactly one
// of their panics.
func TestForFirstPanicWins(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		For(64, 8, func(_, lo, _ int) { panic(fmt.Sprint("chunk at ", lo)) })
		return nil
	}()
	p, ok := got.(*Panic)
	if !ok || !strings.HasPrefix(fmt.Sprint(p.Value), "chunk at ") {
		t.Fatalf("recovered %v, want one worker's *Panic", got)
	}
}
