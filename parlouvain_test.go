package parlouvain_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parlouvain"
)

func TestPublicAPISequential(t *testing.T) {
	el, truth, err := parlouvain.RingOfCliques(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parlouvain.Detect(el, parlouvain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q < 0.6 {
		t.Errorf("Q = %v", res.Q)
	}
	sim, err := parlouvain.CompareAssignments(res.Membership, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.99 {
		t.Errorf("NMI = %v", sim.NMI)
	}
}

func TestPublicAPIParallel(t *testing.T) {
	el, _, err := parlouvain.LFR(parlouvain.DefaultLFR(1000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := parlouvain.DetectParallel(el, 4, parlouvain.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	g := parlouvain.BuildGraph(el, 1000)
	if q := parlouvain.Modularity(g, res.Membership); math.Abs(q-res.Q) > 1e-6 {
		t.Errorf("reported Q %v != recomputed %v", res.Q, q)
	}
	sizes := parlouvain.CommunitySizes(res.Membership)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 1000 {
		t.Errorf("community sizes sum to %d", total)
	}
}

// pollCancel is a context whose Err poll number after+1 calls cancel. Ranks
// poll concurrently, so the count is atomic.
type pollCancel struct {
	context.Context
	after  int64
	cancel func()
	polls  atomic.Int64
}

func (c *pollCancel) Err() error {
	if c.polls.Add(1) == c.after+1 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestPublicAPIParallelCancel cancels a two-rank DetectParallel mid-level,
// after level 0's second iteration, once the other rank has had time to park
// in the next iteration's first collective: the call must return, with an
// error that classifies as context.Canceled.
func TestPublicAPIParallelCancel(t *testing.T) {
	el, _, err := parlouvain.LFR(parlouvain.DefaultLFR(2000, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Each rank polls the context at the level start and at every iteration:
	// poll 7 is the first of iteration 3.
	ctx := &pollCancel{Context: base, after: 2 * (1 + 2), cancel: func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}}
	done := make(chan error, 1)
	go func() {
		_, err := parlouvain.DetectParallel(el, 2, parlouvain.Options{Ctx: ctx})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled DetectParallel did not return within 30s")
	}
}

func TestPublicAPIDistributedTCP(t *testing.T) {
	el, _, err := parlouvain.SBM(parlouvain.SBMConfig{N: 120, Communities: 4, PIn: 0.4, POut: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 120
	const ranks = 3
	parts := parlouvain.SplitEdges(el, ranks)

	addrs, err := parlouvain.LocalAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*parlouvain.Result, ranks)
	errs := make(chan error, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			tr, err := parlouvain.NewTCPTransport(parlouvain.TCPConfig{Rank: r, Addrs: addrs})
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			res, err := parlouvain.DetectDistributed(tr, parts[r], n, parlouvain.Options{CollectLevels: true})
			results[r] = res
			errs <- err
		}(r)
	}
	for r := 0; r < ranks; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every rank reports the same result; compare against in-process.
	mem, err := parlouvain.DetectParallel(el, ranks, parlouvain.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if results[r].Q != mem.Q {
			t.Errorf("rank %d TCP Q %v != in-process Q %v", r, results[r].Q, mem.Q)
		}
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	dir := t.TempDir()
	el, err := parlouvain.RMAT(parlouvain.DefaultRMAT(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.bin")
	if err := parlouvain.SaveGraph(path, el); err != nil {
		t.Fatal(err)
	}
	back, err := parlouvain.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(el) {
		t.Errorf("round trip %d edges, want %d", len(back), len(el))
	}
}

func TestPublicAPIBTER(t *testing.T) {
	el, truth, err := parlouvain.BTER(parlouvain.DefaultBTER(1000, 0.5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 1000 || len(el) == 0 {
		t.Fatalf("BTER output: %d edges, %d truth", len(el), len(truth))
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	el, truth, err := parlouvain.RingOfCliques(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := parlouvain.BuildGraph(el, 0)

	// Graph summary.
	sum := parlouvain.Summarize(g)
	if sum.Vertices != 30 || sum.Components != 1 {
		t.Errorf("summary %+v", sum)
	}

	// Detection + quality + refinement + dendrogram in one pipeline.
	res, err := parlouvain.DetectParallel(el, 2, parlouvain.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := parlouvain.Quality(g, res.Membership)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Coverage <= 0 || pq.Communities != 6 {
		t.Errorf("quality %+v", pq)
	}
	refined, splits := parlouvain.SplitDisconnected(g, res.Membership)
	if splits != 0 || len(refined) != 30 {
		t.Errorf("refine: %d splits", splits)
	}
	d, err := parlouvain.BuildDendrogram(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}

	// Baselines through the algorithm registry.
	if names := parlouvain.Algorithms(); len(names) < 6 {
		t.Errorf("registry lists %d engines, want >= 6", len(names))
	}
	lres, err := parlouvain.DetectAlgo("lpa", el, parlouvain.AlgoOptions{Ranks: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Assignment) != 30 {
		t.Errorf("LPA labels %d", len(lres.Assignment))
	}
	eres, err := parlouvain.DetectAlgo("ensemble", el, parlouvain.AlgoOptions{Runs: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := parlouvain.CompareAssignments(eres.Assignment, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sim.NMI < 0.9 {
		t.Errorf("ensemble NMI %v", sim.NMI)
	}
}

func TestExtendAssignment(t *testing.T) {
	prev := []parlouvain.V{5, 5, 7}
	out := parlouvain.ExtendAssignment(prev, 5)
	want := []parlouvain.V{5, 5, 7, 3, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	if got := parlouvain.ExtendAssignment(prev, 2); len(got) != 2 || got[0] != 5 {
		t.Errorf("shrink: %v", got)
	}
}

// TestFacadePanicsNameTheFault pins the documented panics of the facade
// calls that have no error return — each names what was wrong — and the
// errors the detection calls return for the same bad warm start instead.
func TestFacadePanicsNameTheFault(t *testing.T) {
	el, _, err := parlouvain.RingOfCliques(3, 4) // 12 vertices
	if err != nil {
		t.Fatal(err)
	}
	g := parlouvain.BuildGraph(el, 0)
	short := make([]parlouvain.V, 5)
	const warmMsg = "core: warm-start assignment covers 5 of 12 vertices"
	cases := []struct {
		name, want string
		call       func()
	}{
		{"SplitDisconnected", "core: SplitDisconnected: assignment has 5 entries for 12 vertices",
			func() { parlouvain.SplitDisconnected(g, short) }},
		{"Modularity", "parlouvain: Modularity: assignment has 5 entries for 12 vertices",
			func() { parlouvain.Modularity(g, short) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if got := fmt.Sprint(r); got != c.want {
					t.Errorf("panic %q, want %q", got, c.want)
				}
			}()
			c.call()
		})
	}
	for _, c := range []struct {
		name   string
		detect func() (*parlouvain.Result, error)
	}{
		{"Detect", func() (*parlouvain.Result, error) { return parlouvain.Detect(el, parlouvain.Options{Warm: short}) }},
		{"DetectGraph", func() (*parlouvain.Result, error) { return parlouvain.DetectGraph(g, parlouvain.Options{Warm: short}) }},
		{"DetectParallel", func() (*parlouvain.Result, error) {
			return parlouvain.DetectParallel(el, 2, parlouvain.Options{Warm: short})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if res, err := c.detect(); res != nil || err == nil || !strings.Contains(err.Error(), warmMsg) {
				t.Errorf("res = %v, err = %v; want an error containing %q", res, err, warmMsg)
			}
		})
	}
}

// TestFacadeRefusesNonFiniteWeights: Detect and DetectGraph return an error
// naming an edge whose weight is NaN or ±Inf, a self-loop's included, instead
// of handing it to the gain scan (whose zero test a NaN sum never passes).
func TestFacadeRefusesNonFiniteWeights(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bad := range []parlouvain.Edge{{U: 1, V: 2, W: w}, {U: 2, V: 2, W: w}} {
			el := parlouvain.EdgeList{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, bad, {U: 2, V: 3, W: 1}}
			want := fmt.Sprintf("edge (%d,%d) has non-finite weight %v", bad.U, bad.V, w)
			g := parlouvain.BuildGraph(el, 0) // does not check
			for name, detect := range map[string]func() (*parlouvain.Result, error){
				"Detect":      func() (*parlouvain.Result, error) { return parlouvain.Detect(el, parlouvain.Options{}) },
				"DetectGraph": func() (*parlouvain.Result, error) { return parlouvain.DetectGraph(g, parlouvain.Options{}) },
			} {
				if res, err := detect(); res != nil || err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with (%d,%d) weighing %v: res = %v, err = %v; want an error containing %q", name, bad.U, bad.V, w, res, err, want)
				}
			}
		}
	}
}
