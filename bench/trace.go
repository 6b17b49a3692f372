package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the bench
// around its calls into the program.
type span struct {
	ID       int
	Parent   int // 0 for the root
	Name     string
	Workload string
	Rep      int
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// ref names an open span; the zero ref (tracing off) is inert.
type ref struct {
	t  *tracer
	id int
}

// start opens a span under parent (the zero ref for the root).
func (t *tracer) start(parent ref, name string, rep int) ref {
	if t == nil {
		return ref{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent.id, Name: name, Workload: t.workload, Rep: rep,
		Start: time.Since(t.epoch),
	})
	return ref{t, id}
}

func (r ref) end() {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = time.Since(r.t.epoch)
	r.t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of it
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev). The tid is the span's rep, which on
// serve-mix is the client index, so concurrent clients get a track each.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Rep,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep,
				"self_us": us(self[s.ID]),
			},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
