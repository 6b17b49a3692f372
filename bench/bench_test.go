package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
		{[]float64{10, 20, 30, 40, 50}, 100, 50},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, never above the one asked for and never below the median.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {7, 50}, {19, 50}, {20, 50}, {40, 75}, {99, 89}, {100, 90}, {364, 90}, {5000, 90},
	} {
		if got := tailPercentile(tc.n, 90); got != tc.want {
			t.Errorf("tailPercentile(%d, 90) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(5000, 99); got != 99 {
		t.Errorf("tailPercentile(5000, 99) = %v, want 99", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(30), End: ms(60)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Start: ms(10), End: ms(40)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(40), 2: 0, 3: ms(30), 4: ms(30), 5: ms(30)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	r := tr.start(ref{}, "x", 0)
	r.end()
	tr2 := newTracer("w")
	root := tr2.start(ref{}, "workload", 0)
	child := tr2.start(root, "solve", 1)
	child.end()
	root.end()
	if len(tr2.spans) != 2 || tr2.spans[1].Parent != tr2.spans[0].ID || tr2.spans[1].End < tr2.spans[1].Start {
		t.Errorf("spans = %+v", tr2.spans)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr2.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Errorf("trace does not load: %v, %d events", err, len(doc.TraceEvents))
	}
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the catalogue in this package must say the same thing.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkName(d.Name)
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, catalogue has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %s: bad unit, bound or direction: %+v", d.Name, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, catalogue has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction: %+v", d.Name, d)
		}
	}
	for _, c := range jobClasses {
		if !seen["serve.p50_ms."+c.Key] {
			t.Errorf("job class %s has no serve.p50_ms metric", c.Key)
		}
	}
}

func smokeConfig(workload string, trace bool, t *testing.T) config {
	return config{workload: workload, seed: 11, seconds: 1, smoke: true, trace: trace, out: t.TempDir()}
}

// Every workload, at smoke scale, emits every end-to-end metric with a
// finite non-zero value and passes its own correctness check.
func TestSmokeEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var out *outcome
		var err error
		if w.Algo == "" {
			out, err = runServe(smokeConfig(w.Name, false, t))
		} else {
			out, err = w.runGraph(smokeConfig(w.Name, false, t))
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", w.Name, out.Failed, out.Attempted, out.Notes)
		}
		for _, d := range endToEnd {
			v, ok := out.Metrics[d.Name]
			if !ok || !(v.V > 0) || math.IsInf(v.V, 0) || v.N < 1 {
				t.Errorf("%s: %s = %+v (emitted: %v)", w.Name, d.Name, v, ok)
			}
		}
	}
}

// The traced run emits every per-layer metric on serve-mix, which reaches
// every layer; on a graph workload everything but the serve.* group. A
// Chrome trace that loads is written either way.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"serve-mix", "par-rmat-tcp", "plm-lfr"} {
		cfg := smokeConfig(name, true, t)
		out, err := runTraced(findWorkload(name), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, out.Failed, out.Attempted, out.Notes)
		}
		for _, d := range perLayer {
			v, ok := out.Metrics[d.Name]
			if !ok && (name == "serve-mix" || !strings.HasPrefix(d.Name, "serve.")) {
				t.Errorf("%s: %s not emitted", name, d.Name)
			}
			if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
				t.Errorf("%s: %s = %v", name, d.Name, v.V)
			}
		}
		for _, timing := range []string{"gen.generate_s", "graph.build_s", "core.sequential_s", "core.par_r1_s", "comm.exchange_tcp_us", "edgetable.insert_ns", "metrics.modularity_s"} {
			if !(out.Metrics[timing].V > 0) {
				t.Errorf("%s: %s = %v, want a time above 0", name, timing, out.Metrics[timing].V)
			}
		}
		files, err := os.ReadDir(cfg.out)
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: trace directory: %v, %d files", name, err, len(files))
		}
		buf, err := os.ReadFile(cfg.out + "/" + files[0].Name())
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) < 20 {
			t.Errorf("%s: trace does not load: %v, %d events", name, err, len(doc.TraceEvents))
		}
	}
}

// The last line of a single-workload run is the result object the driver
// reads, with exactly its four keys and exactly the catalogue's metrics.
func TestResultLine(t *testing.T) {
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := runOne(smokeConfig("seq-rmat", false, t))
	os.Stdout = stdout
	w.Close()
	buf, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	var ms map[string]resultMetric
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(ms) != len(endToEnd) {
		t.Errorf("result has %d keys and %d metrics, want 4 and %d", len(got), len(ms), len(endToEnd))
	}
	for _, d := range endToEnd {
		if ms[d.Name].Unit != d.Unit {
			t.Errorf("metric %s: unit %q, want %q", d.Name, ms[d.Name].Unit, d.Unit)
		}
		if !strings.Contains(string(buf), "seq-rmat      "+d.Name) {
			t.Errorf("no human-readable row for %s", d.Name)
		}
	}
}
