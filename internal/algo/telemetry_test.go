package algo

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"parlouvain/internal/obs"
)

// wantEvents maps each engine to an event name its run must emit, proving
// the telemetry plane reaches every engine end to end.
var wantEvents = map[string][]string{
	"par-louvain": {"iteration", "level"},
	"seq-louvain": {"algo_gather", "algo_compute", "algo_broadcast", "level"},
	"leiden":      {"algo_gather", "algo_compute", "algo_broadcast", "level"},
	"lns":         {"algo_gather", "algo_compute", "algo_broadcast", "level"},
	"lpa":         {"sweep"},
	"plm":         {"algo_gather", "algo_compute", "algo_broadcast", "level"},
	"plp":         {"algo_gather", "algo_compute", "algo_broadcast", "sweep", "level"},
	"ensemble":    {"algo_compute", "ensemble_run", "ensemble_final", "level"},
}

func TestTelemetryEndToEndPerEngine(t *testing.T) {
	el, _, n := testGraph(t)
	run := func(t *testing.T, name string, ranks int) (seen map[string]bool, prom string) {
		rec := obs.NewRecorder()
		reg := obs.NewRegistry()
		_, err := Run(context.Background(), name, el, n, Options{
			Ranks:    ranks,
			Seed:     9,
			Recorder: rec,
			Metrics:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen = map[string]bool{}
		for _, e := range rec.Events() {
			seen[e.Name] = true
		}
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return seen, sb.String()
	}
	for _, name := range allEngines {
		t.Run(name, func(t *testing.T) {
			seen, prom := run(t, name, 2)
			for _, want := range wantEvents[name] {
				if !seen[want] {
					t.Errorf("engine %s emitted no %q event (saw %v)", name, want, keys(seen))
				}
			}
			// The comm layer must be instrumented for every engine: traffic
			// flowed, so the counters cannot be zero.
			if !strings.Contains(prom, "comm_bytes_sent_total") {
				t.Errorf("engine %s: metrics registry missing comm counters:\n%s", name, prom)
			}
		})
	}
	// One rank over mem: a whole-graph engine is a plain call, and the
	// telemetry says so — the compute phase, the levels and the thread gauge,
	// but no gather, no broadcast and no comm series, for nothing was exchanged.
	for _, e := range wholeGraphs {
		t.Run(e.Name()+"/one-rank", func(t *testing.T) {
			seen, prom := run(t, e.Name(), 1)
			for _, want := range wantEvents[e.Name()] {
				if harnessOnly := want == "algo_gather" || want == "algo_broadcast"; !harnessOnly && !seen[want] {
					t.Errorf("engine %s emitted no %q event (saw %v)", e.Name(), want, keys(seen))
				}
			}
			if seen["algo_gather"] || seen["algo_broadcast"] {
				t.Errorf("engine %s: a gather or broadcast phase with nobody to exchange with (saw %v)", e.Name(), keys(seen))
			}
			if !strings.Contains(prom, "louvain_threads") || strings.Contains(prom, "comm_") {
				t.Errorf("engine %s: want louvain_threads and no comm_* series:\n%s", e.Name(), prom)
			}
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestLevelEventsAreLive holds every engine to one "level" event per
// Result.Levels entry, emitted as the level ends: on rank 0, in emission
// order, level i's event comes after no event of a later level and, on the
// rank-0 path, before the solve's algo_compute phase closes — a replay of the
// result after the solve fails both. Its fields are the level's record.
func TestLevelEventsAreLive(t *testing.T) {
	el, _, n := testGraph(t)
	for _, name := range allEngines {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				rec := obs.NewRecorder()
				res, err := Run(context.Background(), name, el, n, Options{Ranks: ranks, Seed: 9, Recorder: rec})
				if err != nil {
					t.Fatal(err)
				}
				events, _ := rec.EventsSince(0)
				seen := 0
				for _, e := range events {
					if e.Rank != 0 {
						continue
					}
					switch {
					case e.Name == "level":
						if e.Level != seen || seen >= len(res.Levels) {
							t.Fatalf("level event %d after %d of %d levels", e.Level, seen, len(res.Levels))
						}
						lv := res.Levels[seen]
						if e.Fields["q"] != lv.Q || int(e.Fields["vertices"]) != lv.Vertices ||
							int(e.Fields["communities"]) != lv.Communities || int(e.Fields["inner_iterations"]) != lv.Iterations {
							t.Errorf("level %d event %v, result %+v", seen, e.Fields, lv)
						}
						seen++
					case e.Name == "algo_compute" && seen != len(res.Levels):
						t.Fatalf("the solve ended with %d of %d level events emitted", seen, len(res.Levels))
					case e.Level > seen:
						t.Fatalf("a %q event of level %d before level %d's event", e.Name, e.Level, seen)
					}
				}
				if seen != len(res.Levels) {
					t.Errorf("%d level events for %d levels", seen, len(res.Levels))
				}
			})
		}
	}
}
