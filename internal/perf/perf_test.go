package perf

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownAddGetTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseRefine, 2*time.Second)
	b.Add(PhaseRefine, time.Second)
	b.Add(PhaseReconstruction, time.Second)
	if got := b.Get(PhaseRefine); got != 3*time.Second {
		t.Errorf("Get = %v, want 3s", got)
	}
	if got := b.Total(); got != 4*time.Second {
		t.Errorf("Total = %v, want 4s", got)
	}
	phases := b.Phases()
	if len(phases) != 2 || phases[0] != PhaseRefine {
		t.Errorf("Phases = %v", phases)
	}
}

func TestBreakdownTime(t *testing.T) {
	b := NewBreakdown()
	b.Time("x", func() { time.Sleep(5 * time.Millisecond) })
	if b.Get("x") < 4*time.Millisecond {
		t.Errorf("Time measured %v, want >= ~5ms", b.Get("x"))
	}
}

func TestBreakdownMergeAndMax(t *testing.T) {
	a := NewBreakdown()
	a.Add("p", 2*time.Second)
	b := NewBreakdown()
	b.Add("p", 3*time.Second)
	b.Add("q", time.Second)

	m := NewBreakdown()
	m.Merge(a)
	m.Merge(b)
	if m.Get("p") != 5*time.Second || m.Get("q") != time.Second {
		t.Errorf("Merge: p=%v q=%v", m.Get("p"), m.Get("q"))
	}

	x := NewBreakdown()
	x.Max(a)
	x.Max(b)
	if x.Get("p") != 3*time.Second || x.Get("q") != time.Second {
		t.Errorf("Max: p=%v q=%v", x.Get("p"), x.Get("q"))
	}
}

func TestBreakdownMaxZeroDurationPhaseEntersOrder(t *testing.T) {
	// A rank that recorded a phase with zero accumulated time (e.g. a
	// level with no reconstruction work) must still contribute the phase
	// name, so that Phases() is stable no matter which rank is folded in
	// first.
	o := NewBreakdown()
	o.Add("zero", 0)
	o.Add("busy", time.Second)

	b := NewBreakdown()
	b.Max(o)
	phases := b.Phases()
	if len(phases) != 2 || phases[0] != "zero" || phases[1] != "busy" {
		t.Errorf("Phases after Max = %v, want [zero busy]", phases)
	}
	if b.Get("zero") != 0 || b.Get("busy") != time.Second {
		t.Errorf("values after Max: zero=%v busy=%v", b.Get("zero"), b.Get("busy"))
	}

	// Merge and Max must agree on the phase set.
	m := NewBreakdown()
	m.Merge(o)
	if got, want := len(m.Phases()), len(phases); got != want {
		t.Errorf("Merge phase count %d != Max phase count %d", got, want)
	}

	// A later Add to the zero phase must not duplicate the order entry.
	b.Add("zero", time.Millisecond)
	if got := b.Phases(); len(got) != 2 {
		t.Errorf("Phases after Add = %v, want 2 entries", got)
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseFindBest, 3*time.Second)
	b.Add(PhaseUpdate, time.Second)
	s := b.String()
	if !strings.Contains(s, PhaseFindBest) || !strings.Contains(s, "75.0%") {
		t.Errorf("String output missing expected content:\n%s", s)
	}
	// Largest phase first.
	if strings.Index(s, PhaseFindBest) > strings.Index(s, PhaseUpdate) {
		t.Error("phases not sorted by duration")
	}
}

func TestTEPS(t *testing.T) {
	if got := TEPS(1000, time.Second); got != 1000 {
		t.Errorf("TEPS = %v, want 1000", got)
	}
	if got := TEPS(1000, 0); got != 0 {
		t.Errorf("TEPS(0 duration) = %v, want 0", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Errorf("Speedup = %v, want 5", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Errorf("Speedup(0) = %v, want 0", got)
	}
}
