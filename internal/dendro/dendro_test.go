package dendro

import (
	"testing"

	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

func detect(t *testing.T, n int, mu float64) (*core.Result, *Dendrogram) {
	t.Helper()
	el, _, err := gen.LFR(gen.DefaultLFR(n, mu, 33))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunInProcess(el, n, 4, core.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

func TestDendrogramFromParallelResult(t *testing.T) {
	res, d := detect(t, 1500, 0.3)
	if d.NumLevels() != len(res.Levels) {
		t.Errorf("levels = %d, want %d", d.NumLevels(), len(res.Levels))
	}
	if d.NumVertices() != 1500 {
		t.Errorf("vertices = %d", d.NumVertices())
	}
	if err := d.Validate(); err != nil {
		t.Errorf("hierarchy not a coarsening chain: %v", err)
	}
	// Final cut equals the result membership.
	last, err := d.CutAt(-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range last {
		if last[i] != res.Membership[i] {
			t.Fatalf("CutAt(-1) differs from Membership at %d", i)
		}
	}
	// Communities shrink monotonically with level.
	prev := 1 << 30
	for l := 0; l < d.NumLevels(); l++ {
		c, err := d.CommunitiesAt(l)
		if err != nil {
			t.Fatal(err)
		}
		if c > prev {
			t.Errorf("communities grew at level %d: %d > %d", l, c, prev)
		}
		prev = c
	}
}

func TestDendrogramSequentialResult(t *testing.T) {
	el, _, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Sequential(graph.Build(el, 0), core.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	path, err := d.PathOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != d.NumLevels() {
		t.Errorf("path length %d", len(path))
	}
}

func TestDendrogramErrors(t *testing.T) {
	_, d := detect(t, 500, 0.3)
	if _, err := d.CutAt(99); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := d.PathOf(graph.V(100000)); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := d.CommunitiesAt(-99); err == nil {
		t.Error("deep negative level accepted")
	}
	// Result without CollectLevels is rejected.
	el, _, err := gen.RingOfCliques(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunInProcess(el, 0, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromResult(res); err == nil {
		t.Error("membership-less result accepted")
	}
}

func TestDendrogramEmptyResult(t *testing.T) {
	res, err := core.Sequential(graph.Build(nil, 0), core.Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumLevels() != 0 {
		t.Errorf("levels = %d", d.NumLevels())
	}
}
