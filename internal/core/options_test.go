package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpsilonShape(t *testing.T) {
	if epsilon(1) >= 1 {
		t.Errorf("epsilon(1) = %v, want < 1", epsilon(1))
	}
	for i := 1; i < 20; i++ {
		if epsilon(i+1) >= epsilon(i) {
			t.Fatalf("decay not monotone at %d: %v -> %v", i, epsilon(i), epsilon(i+1))
		}
	}
	// Halving period: epsilon(i+p2*ln2) = epsilon(i)/2.
	if r := epsilon(1) / epsilon(3); math.Abs(r-math.E) > 1e-9 {
		t.Errorf("decay rate wrong: epsilon(1)/epsilon(3) = %v, want e", r)
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxLevels != 32 || o.MaxInner != 64 || o.MinGain != 1e-6 || o.Threads != 1 {
		t.Errorf("defaults: %+v", o)
	}
	// Explicit values survive.
	o = Options{MaxLevels: 3, MaxInner: 5, MinGain: 0.1, Threads: 2}.withDefaults()
	if o.MaxLevels != 3 || o.MaxInner != 5 || o.MinGain != 0.1 || o.Threads != 2 {
		t.Errorf("explicit values overridden: %+v", o)
	}
}

func TestGainHistogramThreshold(t *testing.T) {
	var h gainHistogram
	// 10 gains of ~1e-3, 5 of ~1e-1.
	for i := 0; i < 10; i++ {
		h.add(1e-3)
	}
	for i := 0; i < 5; i++ {
		h.add(0.1)
	}
	if h.total() != 15 {
		t.Fatalf("total = %d", h.total())
	}
	// Target 5: only the top bin (0.1-ish gains) qualifies.
	thr := h.threshold(5)
	if thr > 0.1 || thr < 1e-2 {
		t.Errorf("threshold(5) = %v, want in (0.01, 0.1]", thr)
	}
	// Target 15: everything qualifies; threshold reaches the 1e-3 bin.
	thr = h.threshold(15)
	if thr > 1e-3 {
		t.Errorf("threshold(15) = %v, want <= 1e-3", thr)
	}
	// Target beyond total: admit everything positive.
	if thr := h.threshold(1000); thr != minMoveGain {
		t.Errorf("threshold(1000) = %v, want minMoveGain", thr)
	}
	// Target 0 blocks everything.
	if thr := h.threshold(0); !math.IsInf(thr, 1) {
		t.Errorf("threshold(0) = %v, want +Inf", thr)
	}
}

func TestGainHistogramIgnoresTiny(t *testing.T) {
	var h gainHistogram
	h.add(0)
	h.add(-1)
	h.add(minMoveGain / 10)
	if h.total() != 0 {
		t.Errorf("tiny gains counted: %d", h.total())
	}
}

func TestGainHistogramThresholdAdmitsAtLeastTarget(t *testing.T) {
	// Property: for any gains and target, the number of gains >= the
	// returned threshold is >= min(target, total) (bin granularity can
	// only admit more, never fewer).
	f := func(raw []uint16, target uint8) bool {
		var h gainHistogram
		var gains []float64
		for _, r := range raw {
			g := float64(r) / 65536.0
			h.add(g)
			if g >= minMoveGain {
				gains = append(gains, g)
			}
		}
		tgt := uint64(target)
		thr := h.threshold(tgt)
		admitted := 0
		for _, g := range gains {
			if g >= thr {
				admitted++
			}
		}
		want := int(tgt)
		if len(gains) < want {
			want = len(gains)
		}
		return admitted >= want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGainHistogramAdmitted: the group's move count read off the reduced
// histogram equals a count of the gains update admits — those at or above
// both ΔQ̂ and minMoveGain — for every ΔQ̂ threshold returns. The gains are
// drawn so that bin 0, which spans [minMoveGain, 2⁻³⁹) below an edge of
// 2⁻⁴⁰ < minMoveGain, the gains too small to count, and the bin-63 clamp
// (every gain from 2²³ up) all hold some, and targets run up to beyond the
// total, where threshold returns minMoveGain.
func TestGainHistogramAdmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var h gainHistogram
		var gains []float64
		for i := rng.Intn(200); i > 0; i-- {
			var g float64
			switch rng.Intn(5) {
			case 0: // bin 0 and its neighbours, minMoveGain and 2⁻⁴⁰ among them
				g = []float64{minMoveGain, 0x1p-40, 0x1p-39, math.Nextafter(0x1p-39, 0), minMoveGain / 2}[rng.Intn(5)]
			case 1: // the clamped top bin
				g = math.Ldexp(1+rng.Float64(), 23+rng.Intn(40))
			case 2: // exactly on a bin edge
				g = math.Ldexp(1, gainMinExp+rng.Intn(gainBins))
			default:
				g = math.Ldexp(rng.Float64(), -rng.Intn(45))
			}
			h.add(g)
			gains = append(gains, g)
		}
		for _, target := range []uint64{1, 2, 5, uint64(len(gains)/2 + 1), uint64(len(gains)), uint64(len(gains) + 1), 1 << 40} {
			dq := h.threshold(target)
			var want uint64
			for _, g := range gains {
				if g >= dq && g >= minMoveGain {
					want++
				}
			}
			if got := h.admitted(dq); got != want {
				t.Fatalf("trial %d, target %d: ΔQ̂ %g admits %d of the gains, the histogram says %d", trial, target, dq, want, got)
			}
		}
	}
	var h gainHistogram
	h.add(1)
	if got := h.admitted(math.Inf(1)); got != 0 {
		t.Errorf("ΔQ̂ +Inf admits %d", got)
	}
}

func TestEvolutionRatiosFromResult(t *testing.T) {
	r := &Result{NumVertices: 100, Levels: []Level{{Communities: 20}, {Communities: 5}}}
	ratios := r.EvolutionRatios()
	if len(ratios) != 2 || ratios[0] != 0.2 || ratios[1] != 0.05 {
		t.Errorf("ratios = %v", ratios)
	}
	empty := &Result{}
	if len(empty.EvolutionRatios()) != 0 {
		t.Error("empty result ratios")
	}
}
