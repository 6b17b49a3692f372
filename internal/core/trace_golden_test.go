package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parlouvain/internal/comm"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenEvent is the refactor-stable projection of an obs.Event: the phase
// name, its (rank, level, iter) coordinates and the algorithmic payload
// (moved counts, modularity, thresholds). Wall-clock fields (TS, Dur, *_us)
// and table-occupancy stats are excluded — they vary run to run; everything
// kept here must be bit-identical for a fixed seed no matter how the engine
// is factored internally.
type goldenEvent struct {
	Name   string             `json:"name"`
	Rank   int                `json:"rank"`
	Level  int                `json:"level"`
	Iter   int                `json:"iter"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// goldenFields lists the deterministic algorithmic fields per event kind.
var goldenFields = map[string][]string{
	"iteration": {"moved", "active", "eps", "dq_hat", "floor_pct", "mass", "q", "q_best"},
	"level":     {"q", "vertices", "communities", "inner_iterations"},
}

// nameOrder totally orders the events a rank emits within one (level, iter)
// cell, mirroring the engine's emission sequence.
var nameOrder = map[string]int{
	perf.PhaseFindBest:       0,
	perf.PhaseThreshold:      1,
	perf.PhaseUpdate:         2,
	perf.PhasePropagation:    3,
	perf.PhaseComputeQ:       4,
	"iteration":              5,
	perf.PhaseReconstruction: 6,
	"level":                  7,
}

// collectGoldenTrace runs a fixed-seed 2-rank detection with one recorder
// per rank and returns the normalized, deterministically ordered event
// stream.
func collectGoldenTrace(t *testing.T) []goldenEvent {
	t.Helper()
	const (
		n     = 1000
		ranks = 2
	)
	el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, 19))
	if err != nil {
		t.Fatal(err)
	}
	parts := graph.SplitEdges(el, ranks)
	recs := make([]*obs.Recorder, ranks)
	for r := range recs {
		recs[r] = obs.NewRecorder()
	}
	err = comm.RunGroup(context.Background(), comm.NewMemGroup(ranks), func(r int, c *comm.Comm) error {
		_, err := Parallel(c, parts[r], n, Options{
			Threads:  2,
			Recorder: recs[r],
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var out []goldenEvent
	for r, rec := range recs {
		for _, e := range rec.Events() {
			ge := goldenEvent{Name: e.Name, Rank: r, Level: e.Level, Iter: e.Iter}
			if keep := goldenFields[e.Name]; keep != nil {
				ge.Fields = make(map[string]float64, len(keep))
				for _, f := range keep {
					v, ok := e.Fields[f]
					if !ok {
						t.Fatalf("event %q missing field %q", e.Name, f)
					}
					ge.Fields[f] = v
				}
			}
			out = append(out, ge)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return nameOrder[a.Name] < nameOrder[b.Name]
	})
	return out
}

// TestParallelGoldenTrace pins the engine's observable behaviour: the exact
// sequence of phase, iteration and level events (with moved counts and
// modularity values) of a fixed-seed 2-rank run. Any refactor of the engine
// must reproduce this stream bit-for-bit; regenerate deliberately with
// `go test ./internal/core -run GoldenTrace -update` and inspect the diff.
func TestParallelGoldenTrace(t *testing.T) {
	got := collectGoldenTrace(t)
	buf := goldenJSONL(t, got)
	path := filepath.Join("testdata", "golden_trace.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) == string(buf) {
		return
	}
	// Pinpoint the first divergence for a readable failure.
	wantLines := splitLines(string(want))
	gotLines := splitLines(string(buf))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("trace diverges at event %d:\n  want: %s\n  got:  %s\n(%d vs %d events total)",
				i, w, g, len(wantLines), len(gotLines))
		}
	}
	t.Fatal("trace differs but no line-level divergence found")
}

// goldenJSONL serializes a normalized event stream to the golden file
// format, one JSON object per line.
func goldenJSONL(t *testing.T, events []goldenEvent) []byte {
	t.Helper()
	var buf []byte
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestGoldenTraceDeterministic guards the golden harness itself: two
// collections must agree, otherwise the golden comparison would flake.
func TestGoldenTraceDeterministic(t *testing.T) {
	a := collectGoldenTrace(t)
	b := collectGoldenTrace(t)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("event %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
