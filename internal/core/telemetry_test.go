package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/obs"
)

// TestParallelTelemetryEvents runs a 3-rank in-process detection with a
// shared recorder and checks the contract the exporters and the Figure 8
// harness rely on: one "iteration" event per rank per inner iteration with
// the phase durations attached, a monotone non-decreasing best-modularity
// series, per-level events carrying the level's in-edge count, and both export formats
// well-formed.
func TestParallelTelemetryEvents(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(1200, 0.3, 19))
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 3
	rec := obs.NewRecorder()
	reg := obs.NewRegistry()
	res, err := RunInProcess(el, 1200, ranks, Options{Recorder: rec, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	// One iteration event per rank per recorded inner iteration.
	wantIters := 0
	for _, lv := range res.Levels {
		wantIters += lv.InnerIterations
	}
	perRank := map[int]int{}
	type key struct{ level, iter, rank int }
	seen := map[key]bool{}
	var levelEvents, phaseEvents int
	for _, e := range rec.Events() {
		switch e.Name {
		case "iteration":
			perRank[e.Rank]++
			k := key{e.Level, e.Iter, e.Rank}
			if seen[k] {
				t.Errorf("duplicate iteration event %+v", k)
			}
			seen[k] = true
			for _, f := range []string{"moved", "active", "eps", "dq_hat", "q", "q_best", "find_us", "update_us", "prop_us"} {
				if _, ok := e.Fields[f]; !ok {
					t.Fatalf("iteration event missing field %q: %+v", f, e)
				}
			}
		case "level":
			levelEvents++
			for _, f := range []string{"q", "vertices", "communities", "comm_bytes", "comm_rounds", "in_entries"} {
				if _, ok := e.Fields[f]; !ok {
					t.Fatalf("level event missing field %q: %+v", f, e)
				}
			}
			if e.Fields["in_entries"] <= 0 && e.Level == 0 {
				t.Errorf("level 0 event reports no in-edges: %+v", e)
			}
			// The hash In_Table left the engine; its occupancy series
			// (Fig. 6) comes from `experiments fig6`, not from level events.
			for f := range e.Fields {
				if strings.HasPrefix(f, "in_") && f != "in_entries" {
					t.Errorf("level event still carries table field %q: %+v", f, e)
				}
			}
		default:
			phaseEvents++
			if e.Dur < 0 {
				t.Errorf("negative duration: %+v", e)
			}
		}
	}
	for r := 0; r < ranks; r++ {
		if perRank[r] != wantIters {
			t.Errorf("rank %d emitted %d iteration events, want %d (levels %+v)", r, perRank[r], wantIters, res.Levels)
		}
	}
	if levelEvents != ranks*len(res.Levels) {
		t.Errorf("level events = %d, want %d", levelEvents, ranks*len(res.Levels))
	}
	if phaseEvents == 0 {
		t.Error("no phase events recorded")
	}

	// Each rank pins the group shape in a config marker.
	configs := 0
	for _, e := range rec.Events() {
		if e.Name != "config" {
			continue
		}
		configs++
		if e.Fields["ranks"] != ranks {
			t.Errorf("config event fields = %v, want ranks=%d", e.Fields, ranks)
		}
	}
	if configs != ranks {
		t.Errorf("config events = %d, want %d", configs, ranks)
	}

	// Level events carry per-rank wire-traffic deltas that sum (per rank) to
	// the run totals; a multi-rank level 0 cannot be traffic-free.
	for _, e := range rec.Events() {
		if e.Name == "level" && e.Level == 0 && e.Fields["comm_bytes"] <= 0 {
			t.Errorf("level 0 event reports no traffic: %+v", e)
		}
	}

	// q_best is monotone non-decreasing within each level (it tracks the
	// best-state snapshot that the level rolls back to), and the level-end
	// modularity is monotone non-decreasing across levels.
	lastBest := map[[2]int]float64{} // (rank, level) -> last q_best
	for _, e := range rec.Events() {
		if e.Name != "iteration" {
			continue
		}
		k := [2]int{e.Rank, e.Level}
		if prev, ok := lastBest[k]; ok && e.Fields["q_best"] < prev {
			t.Errorf("rank %d level %d iter %d: q_best decreased %v -> %v",
				e.Rank, e.Level, e.Iter, prev, e.Fields["q_best"])
		}
		lastBest[k] = e.Fields["q_best"]
	}
	prevQ := -1.0
	for i, lv := range res.Levels {
		if lv.Q < prevQ-1e-9 {
			t.Errorf("level %d Q %v below previous %v", i, lv.Q, prevQ)
		}
		prevQ = lv.Q
	}

	// Exports must be well-formed.
	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != rec.Len() {
		t.Errorf("JSONL round trip: %d events, want %d", len(back), rec.Len())
	}
	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}

	// The shared registry accumulated live metrics from all ranks.
	if reg.Counter("comm_rounds_total").Value() == 0 {
		t.Error("comm_rounds_total not incremented")
	}
	if reg.Counter("louvain_iterations_total").Value() != uint64(ranks*wantIters) {
		t.Errorf("louvain_iterations_total = %d, want %d",
			reg.Counter("louvain_iterations_total").Value(), ranks*wantIters)
	}
	if q := reg.Gauge("louvain_modularity").Value(); q <= 0 {
		t.Errorf("louvain_modularity gauge = %v, want > 0", q)
	}
}

// TestParallelTelemetryDisabledIsInert checks the nil-recorder fast path:
// results are identical with and without telemetry attached.
func TestParallelTelemetryDisabledIsInert(t *testing.T) {
	el, _, err := gen.LFR(gen.DefaultLFR(600, 0.35, 29))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunInProcess(el, 600, 2, Options{CollectLevels: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, err := RunInProcess(el, 600, 2, Options{CollectLevels: true, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Q != traced.Q || len(plain.Levels) != len(traced.Levels) {
		t.Errorf("telemetry changed the result: Q %v vs %v, levels %d vs %d",
			plain.Q, traced.Q, len(plain.Levels), len(traced.Levels))
	}
	for i := range plain.Membership {
		if plain.Membership[i] != traced.Membership[i] {
			t.Fatalf("membership diverged at %d", i)
		}
	}
	if rec.Len() == 0 {
		t.Error("recorder empty after traced run")
	}
}
