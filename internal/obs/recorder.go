package obs

import (
	"sort"
	"sync"
	"time"
)

// Event is one structured telemetry record. The parallel engine emits one
// per inner iteration ("iteration"), one per phase measurement (the
// perf.Phase* names) and one per completed level ("level"); consumers such
// as the Figure 8 harness and the Chrome-trace exporter read them back.
//
// TS and Dur are microseconds relative to the Recorder's epoch so that
// events from every rank of one run share a timeline.
type Event struct {
	// Name classifies the event ("iteration", "level", or a phase name).
	Name string `json:"name"`
	// Rank is the emitting rank.
	Rank int `json:"rank"`
	// Level and Iter locate the event in the algorithm's nested loops.
	// Iter is 0 for per-level events.
	Level int `json:"level"`
	Iter  int `json:"iter,omitempty"`
	// TS is the event start in microseconds since the recorder epoch; Dur
	// its duration in microseconds (0 for instantaneous events).
	TS  int64 `json:"ts_us"`
	Dur int64 `json:"dur_us,omitempty"`
	// Fields carries the numeric payload (moved counts, modularity,
	// ε thresholds, table stats, ...).
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Recorder collects events from one run. It is safe for concurrent use, so
// one Recorder can be shared by every rank of an in-process group; separate
// per-process recorders (cmd/louvaind) can be merged offline after reading
// their JSONL streams back.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
	watch  chan struct{} // closed by the next Emit; see Watch
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Now returns the current time in microseconds since the recorder epoch,
// the clock Event.TS is expressed in; 0 on a nil recorder.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Microseconds()
}

// Emit appends e.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.notifyLocked()
	r.mu.Unlock()
}

// notifyLocked wakes every Watch channel handed out since the last append.
func (r *Recorder) notifyLocked() {
	if r.watch != nil {
		close(r.watch)
		r.watch = nil
	}
}

// Watch returns a channel that is closed when the next event is appended.
// Live tails (the per-job SSE stream of the serve API) combine it with
// EventsSince: take the channel, drain the cursor, and block on the channel
// only when the drain came back empty — events recorded between the two
// calls are picked up by the next drain, so none are missed.
func (r *Recorder) Watch() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.watch == nil {
		r.watch = make(chan struct{})
	}
	return r.watch
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events sorted by (TS, Rank).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// EventsSince returns a copy of the events appended after the first n, in
// append order, plus the new cursor (the total recorded count). Telemetry
// publishers use it to ship each event exactly once across periodic
// flushes: pass the previous cursor, keep the returned one.
func (r *Recorder) EventsSince(n int) ([]Event, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(r.events) {
		return nil, len(r.events)
	}
	return append([]Event(nil), r.events[n:]...), len(r.events)
}
