package core

import (
	"math"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
)

func TestSimulatedMatchesInProcessExactly(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(3000, 0.3, 3))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunInProcess(el, 3000, 4, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := RunSimulated(el, 3000, 4, Options{CollectLevels: true}, comm.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Q != base.Q {
		t.Errorf("sim Q %v != in-process Q %v", sim.Q, base.Q)
	}
	if len(sim.Levels) != len(base.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(sim.Levels), len(base.Levels))
	}
	for i := range sim.Membership {
		if sim.Membership[i] != base.Membership[i] {
			t.Fatalf("membership differs at %d", i)
		}
	}
	if sim.SimDuration <= 0 || sim.SimFirstLevel <= 0 {
		t.Errorf("sim durations not populated: %v %v", sim.SimDuration, sim.SimFirstLevel)
	}
	if base.SimDuration != 0 {
		t.Errorf("in-process run has sim duration %v", base.SimDuration)
	}
}

func TestSimulatedScalingMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	el, _, err := gen.LFR(gen.DefaultLFR(8000, 0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	// The makespan is built from measured compute, so one collector cycle or
	// a busy neighbour inflates a run several-fold; the fastest of five is
	// the run nobody disturbed. (Since PR 24 took the In_Table's work — which
	// fell with 1/P — out of every rank, P=4 sits at ~0.45 of P=1 where it sat
	// at ~0.35, and a single disturbed run crossed the bar one time in five.)
	times := map[int]float64{1: math.Inf(1), 4: math.Inf(1), 16: math.Inf(1)}
	for rep := 0; rep < 5; rep++ {
		for p := range times {
			res, err := RunSimulated(el, 8000, p, Options{}, comm.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			times[p] = min(times[p], res.SimDuration.Seconds())
		}
	}
	// Strong scaling: clear win from 1 to 4 ranks; at 16 ranks on this
	// small graph communication saturates, but the makespan must not
	// regress badly.
	if times[4] > times[1]*0.6 {
		t.Errorf("P=4 makespan %.3fs not under 60%% of P=1 %.3fs", times[4], times[1])
	}
	if times[16] > times[4]*1.25 {
		t.Errorf("P=16 makespan %.3fs regressed over P=4 %.3fs", times[16], times[4])
	}
}

func TestSimulatedSingleRank(t *testing.T) {
	el, _, err := gen.RingOfCliques(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSimulated(el, 0, 1, Options{CollectLevels: true}, comm.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Q < 0.5 {
		t.Errorf("Q = %v", res.Q)
	}
}
