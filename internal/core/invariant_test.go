package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"parlouvain/internal/gen"
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
// rebuilt In_Table on rank 0) and require the run to abort with an
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

// TestInvariantCatchesCorruptOutRow is invariant 8's negative test: one slot
// of rank 0's out rows is pointed at the wrong community at the end of each
// level, and the run must abort on every rank with an ErrInvariant — naming
// the slot on the rank that holds it.
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
		if !strings.Contains(err.Error(), "out-row slot 0 of vertex 0 holds community") &&
			!strings.Contains(err.Error(), "out rows inconsistent on another rank") {
			t.Errorf("ranks=%d: error %q does not attribute the violation to the out rows", ranks, err)
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
