package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// TestMain arms the invariant checker for the entire core test suite: every
// engine run in any test of this package verifies mass/member conservation,
// cross-rank agreement, modularity consistency and monotonicity, in-edge and
// out-row consistency, and reconstruction weight preservation after every
// level.
func TestMain(m *testing.M) {
	forceInvariantChecks = true
	os.Exit(m.Run())
}

// TestInvariantChecksPassOnHealthyRun is the explicit positive case: a
// multi-level run over structured and random inputs completes with the
// checker armed through Options (the -check flag path), not just the test
// override.
func TestInvariantChecksPassOnHealthyRun(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 21))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3} {
		res, err := RunInProcess(el, 600, ranks, Options{CheckInvariants: true, CollectLevels: true})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(res.Levels) < 2 {
			t.Fatalf("ranks=%d: want a multi-level hierarchy to exercise per-level checks, got %d", ranks, len(res.Levels))
		}
	}
}

// TestInvariantCatchesBrokenReconstruction is the checker's negative test:
// deliberately corrupt Algorithm 5 (phantom edge weight smuggled into the
// next level's records on rank 0) and require the run to abort with an
// ErrInvariant-wrapped, reconstruction-attributed error instead of quietly
// producing a wrong hierarchy.
func TestInvariantCatchesBrokenReconstruction(t *testing.T) {
	el, _, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	debugBreakReconstruct = true
	defer func() { debugBreakReconstruct = false }()
	_, err = RunInProcess(el, 40, 2, Options{CollectLevels: true})
	if err == nil {
		t.Fatal("run with corrupted reconstruction completed without error")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant in the chain", err)
	}
	if !strings.Contains(err.Error(), "reconstruction changed total edge weight") {
		t.Errorf("error %q does not attribute the violation to reconstruction", err)
	}
}

// TestInvariantCatchesCorruptOutRow is invariant 8's negative test: the ghost
// entry behind the first entry of rank 0's first row is pointed at the wrong
// community at the end of each level, and the run must abort on every rank
// with an ErrInvariant — naming the row and the neighbor on the rank that
// reads it.
func TestInvariantCatchesCorruptOutRow(t *testing.T) {
	el, _, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	debugBreakOutRow = true
	defer func() { debugBreakOutRow = false }()
	for _, ranks := range []int{1, 2} {
		_, err = RunInProcess(el, 40, ranks, Options{})
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("ranks=%d: err = %v, want ErrInvariant in the chain", ranks, err)
		}
		// Whichever rank's error the group reports first.
		if !strings.Contains(err.Error(), "out row of vertex 0 reads community") &&
			!strings.Contains(err.Error(), "out rows inconsistent on another rank") {
			t.Errorf("ranks=%d: error %q does not attribute the violation to the out rows", ranks, err)
		}
	}
}

// TestInvariantCatchesUnequalTwin: the two orientations of one edge carry
// different weights — structurally symmetric, so levelInit's always-on check
// has nothing to see and an unchecked run completes, but a row of in-edges is
// then not its vertex's out-edges, and invariant 8's twin comparison must
// abort the run on every rank, naming the pair on the rank that holds it.
func TestInvariantCatchesUnequalTwin(t *testing.T) {
	c := rowCase{n: 5, entries: both(
		graph.Edge{U: 0, V: 1, W: 1}, graph.Edge{U: 1, V: 2, W: 2}, graph.Edge{U: 0, V: 2, W: 1}, graph.Edge{U: 2, V: 3, W: 4}, graph.Edge{U: 3, V: 4, W: 1},
	)}
	for i, e := range c.entries {
		if e.U == 2 && e.V == 1 {
			c.entries[i].W = 2.5
		}
	}
	defer func() { forceInvariantChecks = true }()
	for _, ranks := range []int{1, 2, 3} {
		forceInvariantChecks = false
		if _, errs := parallelGroup(c.split(ranks), c.n, Options{}); errors.Join(errs...) != nil {
			t.Fatalf("ranks=%d, unchecked: %v — unequal twin weights should go unnoticed without the checker", ranks, errors.Join(errs...))
		}
		_, errs := parallelGroup(c.split(ranks), c.n, Options{CheckInvariants: true})
		blamed := false
		for rank, err := range errs {
			if !errors.Is(err, ErrInvariant) {
				t.Fatalf("ranks=%d rank %d: err = %v, want ErrInvariant in the chain", ranks, rank, err)
			}
			blamed = blamed || strings.Contains(err.Error(), "in-edge (1→2) weighs 2 at rank") || strings.Contains(err.Error(), "in-edge (2→1) weighs 2.5 at rank")
		}
		if !blamed {
			t.Errorf("ranks=%d: no rank names the unequal twin: %v", ranks, errs)
		}
	}
}

// TestInvariantCheckerOffByDefault: without the flag or the test override,
// the corrupted run completes — proving the production default costs no
// collectives and that the negative test above fails through the checker,
// not through some unrelated breakage.
func TestInvariantCheckerOffByDefault(t *testing.T) {
	el, _, err := gen.RingOfCliques(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	forceInvariantChecks = false
	debugBreakReconstruct = true
	defer func() {
		forceInvariantChecks = true
		debugBreakReconstruct = false
	}()
	if _, err := RunInProcess(el, 40, 2, Options{}); err != nil {
		t.Fatalf("unchecked run surfaced %v — corruption should go unnoticed without the checker", err)
	}
}

// TestInvariantCatchesMovedCountMismatch: with checks on, the group's move
// count read off the gain histogram is held to a reduction of the ranks' own
// counts, and a disagreement fails every rank with ErrInvariant.
func TestInvariantCatchesMovedCountMismatch(t *testing.T) {
	el, _, err := gen.RingOfCliques(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	states := levelEngines(t, el, 16, 3)
	for _, c := range []struct {
		fromHistogram uint64
		fail          bool
	}{{6, false}, {5, true}} {
		errs := make([]error, len(states))
		err := runRanks(states, func(s *engine) error {
			errs[s.part.Rank] = s.checkMoved(uint64(s.part.Rank+1), c.fromHistogram) // the ranks moved 1+2+3
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			if c.fail != errors.Is(err, ErrInvariant) || !c.fail && err != nil {
				t.Errorf("histogram count %d, ranks' 6: rank %d err = %v, want failure %v", c.fromHistogram, r, err, c.fail)
			}
		}
	}
}
