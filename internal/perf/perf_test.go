package perf

import (
	"testing"
	"time"
)

func TestBreakdownAddGetTotal(t *testing.T) {
	b := Breakdown{}
	b[PhaseRefine] += 2 * time.Second
	b[PhaseRefine] += time.Second
	if got := b.Get(PhaseRefine); got != 3*time.Second {
		t.Errorf("Get = %v, want 3s", got)
	}
	if got := b.Get(PhaseReconstruction); got != 0 {
		t.Errorf("Get of an untimed phase = %v, want 0", got)
	}
	var none Breakdown
	if got := none.Get(PhaseRefine); got != 0 {
		t.Errorf("nil Get = %v, want 0", got)
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
