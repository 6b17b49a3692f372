// Package par provides the intra-rank threading primitives that stand in for
// the paper's Pthreads layer: a chunked parallel-for and a reusable worker
// group. Every function takes an explicit
// thread count so experiments can sweep it (Figure 7a).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultThreads returns the thread count used when a caller passes a
// non-positive value: the number of usable CPUs.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// clampThreads normalizes a requested thread count against the work size.
func clampThreads(threads, n int) int {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// Panic is a recovered panic, carried to a goroutine that can report it: the
// value passed to panic and the stack of the goroutine that raised it. It is
// an error, reading "panic: value" and the stack.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("panic: %v\n%s", p.Value, p.Stack) }

// Recovered returns v, a value recover returned, as a *Panic with the stack of
// the calling goroutine — the panicking one when called from its deferred
// function — or v itself when it is a *Panic already.
func Recovered(v any) *Panic {
	if p, ok := v.(*Panic); ok {
		return p
	}
	return &Panic{Value: v, Stack: debug.Stack()}
}

// carrier keeps the first panic of a set of worker goroutines, to be raised
// again on the goroutine that waits for them.
type carrier struct {
	once sync.Once
	p    *Panic
}

// catch is deferred by each worker.
func (c *carrier) catch() {
	if v := recover(); v != nil {
		p := Recovered(v)
		c.once.Do(func() { c.p = p })
	}
}

// raise re-raises the kept panic, if any, once every worker has returned.
func (c *carrier) raise() {
	if c.p != nil {
		panic(c.p)
	}
}

// For splits [0,n) into one contiguous chunk per thread and calls
// body(thread, lo, hi) concurrently. It returns once all chunks complete.
// With threads <= 1 (or n small) the body runs inline on the caller's
// goroutine, so single-threaded runs have zero scheduling overhead. A body
// that panics on a worker goroutine panics the caller instead, as a *Panic,
// after every chunk has returned; of several, the first to be caught wins.
func For(n, threads int, body func(thread, lo, hi int)) {
	if n <= 0 {
		return
	}
	threads = clampThreads(threads, n)
	if threads == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	var c carrier
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		lo := t * n / threads
		hi := (t + 1) * n / threads
		go func(t, lo, hi int) {
			defer wg.Done()
			defer c.catch()
			body(t, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
	c.raise()
}

// ForChunked splits [0,n) into fixed-size chunks pulled dynamically by the
// worker threads, for irregular per-element cost (power-law degree graphs).
// A panicking body is carried to the caller as in For.
func ForChunked(n, threads, chunk int, body func(thread, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1024
	}
	threads = clampThreads(threads, (n+chunk-1)/chunk)
	if threads == 1 {
		body(0, 0, n)
		return
	}
	var next int64
	var mu sync.Mutex
	take := func() (int, int, bool) {
		mu.Lock()
		lo := int(next)
		if lo >= n {
			mu.Unlock()
			return 0, 0, false
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		next = int64(hi)
		mu.Unlock()
		return lo, hi, true
	}
	var wg sync.WaitGroup
	var c carrier
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer wg.Done()
			defer c.catch()
			for {
				lo, hi, ok := take()
				if !ok {
					return
				}
				body(t, lo, hi)
			}
		}(t)
	}
	wg.Wait()
	c.raise()
}

// Group runs a fixed set of bodies concurrently and collects the first error
// to arrive. In-process rank groups do not use it — comm.RunGroup runs those,
// with the sim turn protocol and the cancellation watchdog — but the
// benchmark harness and tests start plain concurrent work with it.
type Group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	once bool
}

// Go launches fn on a new goroutine tracked by the group.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if !g.once {
				g.err, g.once = err, true
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every launched body returns and reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
