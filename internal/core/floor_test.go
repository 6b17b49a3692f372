package core

import (
	"math"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
)

// TestAdmissionFloor holds the admission floor to its rule: the mass is the
// lower-edge sum over exactly the bins ΔQ̂ admits; the floor doubles after an
// iteration whose ΔQ reaches the mass's expected value, caps at floorMaxPct,
// and returns to floorStartPct after an iteration that falls short and at the
// start of every level. The engine's iteration events, which carry the floor
// each iteration ran at and the mass it admitted, must follow the rule on an
// LFR input (the floor climbs to the cap and falls back), an R-MAT input (it
// resets at several levels) and the LFR input with its levels cut short
// while the floor still grows.
func TestAdmissionFloor(t *testing.T) {
	t.Run("mass", func(t *testing.T) {
		var h gainHistogram
		counts := map[int]uint64{0: 3, 10: 5, 20: 7, 21: 2, 30: 1}
		for i, c := range counts {
			h.counts[i] = c
		}
		for _, c := range []struct {
			target uint64
			bins   []int // the admitted bins, ascending
		}{
			{1, []int{30}},
			{3, []int{21, 30}},
			{10, []int{20, 21, 30}},
			{15, []int{10, 20, 21, 30}},
			{100, []int{0, 10, 20, 21, 30}}, // every gain: ΔQ̂ is minMoveGain
			{0, nil},                        // none: ΔQ̂ is +Inf
		} {
			dqHat := h.threshold(c.target)
			var want float64
			var n uint64
			for _, i := range c.bins {
				want += math.Ldexp(float64(counts[i]), i+gainMinExp)
				n += counts[i]
			}
			if got := h.mass(dqHat); got != want {
				t.Errorf("target %d (ΔQ̂ %v): mass %v, want %v over bins %v", c.target, dqHat, got, want, c.bins)
			}
			if got := h.admitted(dqHat); got != n {
				t.Errorf("target %d (ΔQ̂ %v): %d admitted, want %d", c.target, dqHat, got, n)
			}
		}
	})

	t.Run("rule", func(t *testing.T) {
		mass := 0x1p-10
		pays := math.Log2E * mass
		pct := floorStartPct
		for _, want := range []int{2, 4, 8, 8} {
			if pct = nextFloor(pct, pays, mass); pct != want {
				t.Fatalf("after a paying iteration the floor is %d %%, want %d", pct, want)
			}
		}
		for _, c := range []struct {
			name     string
			dq, mass float64
		}{
			{"a ΔQ just under the expected gain", math.Nextafter(pays, 0), mass},
			{"a ΔQ that reaches only the mass", mass, mass},
			{"no ΔQ", 0, 0},
			{"a fall in Q", -mass, mass},
		} {
			if got := nextFloor(floorMaxPct, c.dq, c.mass); got != floorStartPct {
				t.Errorf("%s: the floor is %d %%, want %d", c.name, got, floorStartPct)
			}
		}
	})

	lfr, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3, 19))
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		el   graph.EdgeList
		n    int
		opt  Options
	}{
		{"lfr1000", lfr, 1000, Options{}},
		{"rmat10", rmat, 1 << 10, Options{}},
		// Cut at six iterations, level 0 ends on a paying iteration at a
		// floor of 4 %: the next level must still start at 1 %.
		{"lfr1000/max-inner=6", lfr, 1000, Options{MaxInner: 6}},
	} {
		t.Run(in.name, func(t *testing.T) {
			in.opt.Recorder = obs.NewRecorder()
			if _, err := RunInProcess(in.el, in.n, 2, in.opt); err != nil {
				t.Fatal(err)
			}
			// The floor an iteration ran at was decided from the iteration
			// before it: its floor, its rise over the one before that, and
			// its mass. So the rule can be checked from the third iteration
			// of a level.
			next := func(level []obs.Event) int {
				last, before := level[len(level)-1].Fields, level[len(level)-2].Fields
				return nextFloor(int(last["floor_pct"]), last["q"]-before["q"], last["mass"])
			}
			var level []obs.Event
			grew, capped, reset, levelReset := false, false, false, false
			for _, e := range in.opt.Recorder.Events() {
				if e.Name != "iteration" || e.Rank != 0 {
					continue
				}
				floor := int(e.Fields["floor_pct"])
				if e.Iter == 1 {
					if floor != floorStartPct {
						t.Errorf("level %d starts at a floor of %d %%, want %d", e.Level, floor, floorStartPct)
					}
					levelReset = levelReset || len(level) >= 2 && next(level) > floorStartPct
					level = level[:0]
				}
				if len(level) >= 2 {
					pct := int(level[len(level)-1].Fields["floor_pct"])
					if want := next(level); floor != want {
						t.Errorf("level %d iteration %d: floor %d %% after %d %%, want %d", e.Level, e.Iter, floor, pct, want)
					}
					grew = grew || floor > pct
					reset = reset || floor < pct
				}
				capped = capped || floor == floorMaxPct
				level = append(level, e)
			}
			switch {
			case in.opt.MaxInner > 0 && !levelReset:
				t.Error("no level ended on a paying iteration, so the reset at a level's start was not exercised")
			case in.opt.MaxInner == 0 && (!grew || !reset || in.name == "lfr1000" && !capped):
				t.Errorf("the run never exercised the rule: grew %v, reset %v, reached the cap %v", grew, reset, capped)
			}
		})
	}
}
