package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDecayEpsilonShape(t *testing.T) {
	eps := DecayEpsilon(1.0, 2.0)
	if eps(1) >= 1 {
		t.Errorf("eps(1) = %v, want < 1", eps(1))
	}
	for i := 1; i < 20; i++ {
		if eps(i+1) >= eps(i) {
			t.Fatalf("decay not monotone at %d: %v -> %v", i, eps(i), eps(i+1))
		}
	}
	// Halving period: eps(i+p2*ln2) = eps(i)/2.
	if r := eps(1) / eps(3); math.Abs(r-math.E) > 1e-9 {
		t.Errorf("decay rate wrong: eps(1)/eps(3) = %v, want e", r)
	}
}

func TestPaperLiteralEpsilonDecaysTowardP1(t *testing.T) {
	eps := PaperLiteralEpsilon(0.5, 2.0)
	if eps(1) <= 0.5 {
		t.Errorf("eps(1) = %v, want > p1", eps(1))
	}
	if got := eps(1000000); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("eps(inf) = %v, want -> 0.5", got)
	}
	for i := 1; i < 10; i++ {
		if eps(i+1) >= eps(i) {
			t.Fatalf("literal form not decreasing at %d", i)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxLevels != 32 || o.MaxInner != 64 || o.MinGain != 1e-6 ||
		o.ProgressGain != 1e-4 || o.Threads != 1 || o.Epsilon == nil {
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
