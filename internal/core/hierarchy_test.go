package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/obs"
)

// hierarchyEngines are the four entry points onto the shared hierarchy
// driver; every contract below must hold for each of them.
var hierarchyEngines = []struct {
	name string
	run  func(*graph.Graph, Options) (*Result, error)
}{
	{"sequential", Sequential}, {"plm", PLM}, {"leiden", Leiden}, {"lns", LNS},
}

// must returns the result of a run that may not fail and fails t if it did:
// must(t)(Sequential(g, opt)).
func must(t testing.TB) func(*Result, error) *Result {
	return func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// levelEvents lists the levels of the "level" events rec holds, in order.
func levelEvents(rec *obs.Recorder) []int {
	var levels []int
	for _, e := range rec.Events() {
		if e.Name == "level" {
			levels = append(levels, e.Level)
		}
	}
	return levels
}

// pollCancel is a context whose Err poll number after+1 calls cancel, which
// pins where in a run the engines see it: cancel is the embedded context's
// own CancelFunc, perhaps wrapped by the test, and every poll reports the
// embedded context's state. Ranks poll concurrently, so the count is atomic.
type pollCancel struct {
	context.Context
	after  int64
	cancel func()
	polls  atomic.Int64
}

// newPollCancel returns a pollCancel over its own cancelable context.
func newPollCancel(after int) *pollCancel {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancel{Context: ctx, after: int64(after), cancel: cancel}
}

func (c *pollCancel) Err() error {
	if c.polls.Add(1) == c.after+1 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestHierarchyContract is the behaviour every engine on the driver owes its
// callers, whatever its move phase does.
func TestHierarchyContract(t *testing.T) {
	g, _ := plmTestGraph(t)
	for _, e := range hierarchyEngines {
		t.Run(e.name, func(t *testing.T) {
			// One answer at every thread count. (Under -race this is also
			// the data-race check on plm's decide fan-out.)
			base := must(t)(e.run(g, Options{Seed: 11, Threads: 1, CollectLevels: true}))
			samePLMResult(t, "threads unset", base, must(t)(e.run(g, Options{Seed: 11})))
			for _, threads := range []int{2, 4} {
				samePLMResult(t, "threads", base, must(t)(e.run(g, Options{Seed: 11, Threads: threads})))
			}

			// Levels only ever merge and gain, and the reported Q is the
			// modularity of the reported membership.
			if len(base.Levels) < 2 {
				t.Fatalf("expected multiple levels, got %d", len(base.Levels))
			}
			for i, lv := range base.Levels {
				if i > 0 && lv.Q < base.Levels[i-1].Q-1e-9 {
					t.Errorf("level %d Q decreased: %v -> %v", i, base.Levels[i-1].Q, lv.Q)
				}
				if i > 0 && lv.Communities > base.Levels[i-1].Communities {
					t.Errorf("level %d communities grew: %d -> %d", i, base.Levels[i-1].Communities, lv.Communities)
				}
				if len(lv.Membership) != g.N {
					t.Errorf("level %d membership covers %d of %d vertices", i, len(lv.Membership), g.N)
				}
			}
			if q := metrics.Modularity(g, base.Membership); math.Abs(q-base.Q) > 1e-9 {
				t.Errorf("reported Q %v != recomputed %v", base.Q, q)
			}

			one := must(t)(e.run(g, Options{Seed: 11, MaxLevels: 1}))
			if len(one.Levels) != 1 {
				t.Errorf("MaxLevels 1 built %d levels", len(one.Levels))
			}

			// A warm start is where level 0 begins: handing a run its own
			// answer back can only keep or merge those communities.
			warm := must(t)(e.run(g, Options{Seed: 11, Threads: 2, Warm: base.Membership}))
			if final := base.Levels[len(base.Levels)-1].Communities; warm.Levels[0].Communities > final {
				t.Errorf("warm level 0 has %d communities, the warm start had %d", warm.Levels[0].Communities, final)
			}
			if warm.Q < base.Q-1e-9 {
				t.Errorf("warm start lost quality: %v -> %v", base.Q, warm.Q)
			}
			if len(warm.Levels) > len(base.Levels) {
				t.Errorf("warm start did more levels (%d) than cold (%d)", len(warm.Levels), len(base.Levels))
			}
		})
	}
}

// TestHierarchyCancel is the cancel rule of the whole-graph engines, which is
// par-louvain's (TestParallelCancelMidRun): a context seen done at a level
// start fails the run with ErrCanceled and the context's error, and no level
// runs after that check — none when it fired before the run, none after
// level 0 when it fired during it.
func TestHierarchyCancel(t *testing.T) {
	g, _ := plmTestGraph(t)
	for _, e := range hierarchyEngines {
		for _, polls := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/after=%d", e.name, polls), func(t *testing.T) {
				rec := obs.NewRecorder()
				res, err := e.run(g, Options{
					Seed:     11,
					Ctx:      newPollCancel(polls),
					Recorder: rec,
				})
				if res != nil || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("res = %v, err = %v; want no result, ErrCanceled and context.Canceled", res, err)
				}
				if got := levelEvents(rec); len(got) != polls {
					t.Errorf("levels %v ran, want the %d before the check", got, polls)
				}
			})
		}
	}
}

func TestHierarchyTrivialGraphs(t *testing.T) {
	for _, e := range hierarchyEngines {
		t.Run(e.name, func(t *testing.T) {
			opt := Options{Threads: 4}
			if res := must(t)(e.run(graph.Build(nil, 0), opt)); res.Q != 0 || len(res.Levels) != 0 || len(res.Membership) != 0 {
				t.Errorf("empty graph: %+v", res)
			}
			if res := must(t)(e.run(graph.Build(nil, 5), opt)); res.Q != 0 || len(res.Membership) != 5 {
				t.Errorf("edgeless graph: %+v", res)
			}
			single := must(t)(e.run(graph.Build(graph.EdgeList{{U: 0, V: 1, W: 1}}, 2), opt))
			if len(single.Membership) != 2 || single.Membership[0] != single.Membership[1] {
				t.Errorf("single edge should merge into one community: %v", single.Membership)
			}
			// Self-loops only: nothing to merge, Q still consistent.
			loops := graph.Build(graph.EdgeList{{U: 0, V: 0, W: 3}, {U: 1, V: 1, W: 2}}, 0)
			res := must(t)(e.run(loops, opt))
			if want := metrics.Modularity(loops, res.Membership); math.Abs(res.Q-want) > 1e-9 {
				t.Errorf("self-loop graph Q=%v, recomputed %v", res.Q, want)
			}
			if res.Membership[0] == res.Membership[1] {
				t.Errorf("self-loop vertices merged: %v", res.Membership)
			}
		})
	}
}
