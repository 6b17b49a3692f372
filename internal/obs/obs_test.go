package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %v, want 3.5", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("gauge = %v, want -1", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	// Upper bounds are inclusive (Prometheus "le" semantics): a sample
	// exactly on a boundary lands in that boundary's bucket.
	for _, v := range []float64{0, 0.5, 1} {
		h.Observe(v) // bucket 0 (le=1)
	}
	h.Observe(1.0000001) // bucket 1 (le=10)
	h.Observe(10)        // bucket 1
	h.Observe(99.9)      // bucket 2 (le=100)
	h.Observe(100)       // bucket 2
	h.Observe(101)       // +Inf bucket
	h.Observe(math.Inf(1))

	s := h.Snapshot()
	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", i, s.Buckets[i], w, s)
		}
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if !math.IsInf(s.Sum, 1) {
		t.Errorf("sum = %v, want +Inf", s.Sum)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{100, 1, 10})
	h.Observe(5)
	s := h.Snapshot()
	if s.Bounds[0] != 1 || s.Bounds[1] != 10 || s.Bounds[2] != 100 {
		t.Errorf("bounds = %v, want sorted", s.Bounds)
	}
	if s.Buckets[1] != 1 {
		t.Errorf("sample 5 in bucket %v, want le=10 bucket", s.Buckets)
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", []float64{5, 6}) {
		t.Error("Histogram not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("c")
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// lookups, mutations and Prometheus renders at once. Run under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_counter")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", []float64{0.25, 0.5, 0.75})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 100)
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_counter").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("shared_hist", nil).Snapshot().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Gauge("level").Set(2)
	h := r.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter\nrequests_total 3\n",
		"# TYPE level gauge\nlevel 2\n",
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 5.55",
		"latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRecorderEventsOrderedByTime: events emitted out of time order, from
// two ranks, come back sorted by timestamp.
func TestRecorderEventsOrderedByTime(t *testing.T) {
	a := NewRecorder()
	a.Emit(Event{Name: "x", Rank: 0, TS: 50})
	a.Emit(Event{Name: "y", Rank: 0, TS: 10})
	a.Emit(Event{Name: "z", Rank: 1, TS: 20})

	evs := a.Events()
	if len(evs) != 3 {
		t.Fatalf("recorded %d events, want 3", len(evs))
	}
	if evs[0].Name != "y" || evs[1].Name != "z" || evs[2].Name != "x" {
		t.Errorf("order = %v", []string{evs[0].Name, evs[1].Name, evs[2].Name})
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(Event{Name: "e", Rank: rank, TS: r.Now()})
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 2000 {
		t.Errorf("len = %d, want 2000", r.Len())
	}
}
