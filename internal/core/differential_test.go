package core

import (
	"fmt"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// Differential harness for the pluggable level storage: it is a read-path
// choice whose whole contract is "identical answers", so every storage
// variant is run against the seed configuration (hash) over seeded random
// and LFR graphs, rank counts 1/2/4, and the mem and sim transports, and
// must match it bit-for-bit — final Q, the per-level Q trajectory, the
// per-iteration move counts, and every vertex's final assignment. The
// per-level invariant checker (armed by TestMain) runs inside all of these
// runs, including the storage-consistency invariant; the golden-trace
// variants in trace_golden_test.go pin the same property at event-stream
// granularity.

// diffVariants are the configurations differentially tested against the
// seed behavior. The seed itself (hash) is the baseline.
var diffVariants = []struct {
	name    string
	storage StorageKind
}{
	{"csr", StorageCSR},
	{"auto", StorageAuto},
}

// runDiff executes one detection with the given variant over the requested
// transport, with invariant checks forced on by TestMain.
func runDiff(t *testing.T, el graph.EdgeList, n, ranks int, transport string, storage StorageKind) *Result {
	t.Helper()
	opt := Options{
		CollectLevels: true,
		Threads:       2, // sim forces 1; mem exercises the sharded paths
		Storage:       storage,
	}
	var (
		res *Result
		err error
	)
	switch transport {
	case "mem":
		res, err = RunInProcess(el, n, ranks, opt)
	case "sim":
		res, err = RunSimulated(el, n, ranks, opt, comm.CostModel{})
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	if err != nil {
		t.Fatalf("%s ranks=%d storage=%v: %v", transport, ranks, storage, err)
	}
	return res
}

// assertIdentical compares a variant's result against the baseline
// bit-for-bit: no tolerances anywhere.
func assertIdentical(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if got.Q != base.Q {
		t.Errorf("%s: final Q %v != baseline %v", label, got.Q, base.Q)
	}
	if len(got.Levels) != len(base.Levels) {
		t.Fatalf("%s: %d levels != baseline %d", label, len(got.Levels), len(base.Levels))
	}
	for i := range base.Levels {
		b, g := base.Levels[i], got.Levels[i]
		if g.Q != b.Q {
			t.Errorf("%s: level %d Q %v != baseline %v", label, i, g.Q, b.Q)
		}
		if g.Vertices != b.Vertices || g.Communities != b.Communities {
			t.Errorf("%s: level %d shape (%d->%d) != baseline (%d->%d)",
				label, i, g.Vertices, g.Communities, b.Vertices, b.Communities)
		}
		if g.InnerIterations != b.InnerIterations {
			t.Errorf("%s: level %d ran %d inner iterations, baseline %d",
				label, i, g.InnerIterations, b.InnerIterations)
		}
		for j := range b.MovesPerIter {
			if j < len(g.MovesPerIter) && g.MovesPerIter[j] != b.MovesPerIter[j] {
				t.Errorf("%s: level %d iter %d moved %d, baseline %d",
					label, i, j+1, g.MovesPerIter[j], b.MovesPerIter[j])
				break
			}
		}
	}
	if len(got.Membership) != len(base.Membership) {
		t.Fatalf("%s: membership length %d != baseline %d", label, len(got.Membership), len(base.Membership))
	}
	for v := range base.Membership {
		if got.Membership[v] != base.Membership[v] {
			t.Errorf("%s: vertex %d assigned %d, baseline %d",
				label, v, got.Membership[v], base.Membership[v])
			break
		}
	}
}

func diffGraphs(t *testing.T) []struct {
	name string
	el   graph.EdgeList
	n    int
} {
	t.Helper()
	lfr, _, err := gen.LFR(gen.DefaultLFR(400, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		el   graph.EdgeList
		n    int
	}{
		{"random-n60", randomGraph(60, 0.12, 7), 60},
		{"lfr-n400", lfr, 400},
	}
	if !testing.Short() {
		graphs = append(graphs, struct {
			name string
			el   graph.EdgeList
			n    int
		}{"random-n120", randomGraph(120, 0.06, 99), 120})
	}
	return graphs
}

// TestDifferentialStorage is the centerpiece sweep: every variant × graph ×
// rank count × transport against the seed baseline.
func TestDifferentialStorage(t *testing.T) {
	ranksSet := []int{1, 2, 4}
	if testing.Short() {
		ranksSet = []int{1, 2}
	}
	for _, g := range diffGraphs(t) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, ranks := range ranksSet {
				for _, transport := range []string{"mem", "sim"} {
					base := runDiff(t, g.el, g.n, ranks, transport, StorageHash)
					for _, v := range diffVariants {
						label := fmt.Sprintf("%s/ranks=%d/%s", transport, ranks, v.name)
						got := runDiff(t, g.el, g.n, ranks, transport, v.storage)
						assertIdentical(t, label, base, got)
					}
				}
			}
		})
	}
}

// TestDifferentialWarmStart covers the warm-start path: CSR storage must
// also leave re-detection from a previous assignment bit-identical.
func TestDifferentialWarmStart(t *testing.T) {
	el := randomGraph(80, 0.08, 31)
	const n = 80
	cold, err := RunInProcess(el, n, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	warm := Options{CollectLevels: true, Warm: cold.Membership, Threads: 2}
	base, err := RunInProcess(el, n, 2, warm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range diffVariants {
		opt := warm
		opt.Storage = v.storage
		got, err := RunInProcess(el, n, 2, opt)
		if err != nil {
			t.Fatalf("warm %s: %v", v.name, err)
		}
		assertIdentical(t, "warm/"+v.name, base, got)
	}
}

// TestDifferentialNaive covers the naive (no-threshold) refine mode, whose
// every-positive-gain update pattern moves far more vertices per iteration
// than the ε-heuristic.
func TestDifferentialNaive(t *testing.T) {
	el := randomGraph(70, 0.1, 13)
	const n = 70
	naive := Options{CollectLevels: true, Naive: true, Threads: 2}
	base, err := RunInProcess(el, n, 2, naive)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range diffVariants {
		opt := naive
		opt.Storage = v.storage
		got, err := RunInProcess(el, n, 2, opt)
		if err != nil {
			t.Fatalf("naive %s: %v", v.name, err)
		}
		assertIdentical(t, "naive/"+v.name, base, got)
	}
}
