package obs

import (
	"encoding/binary"
	"math"
	"slices"
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
// their JSONL streams back. The zero value is an empty recorder whose epoch
// is the zero time.
//
// Events are stored encoded, back to back in one append-only byte log, and
// decoded on every read, so a kept recorder holds no map per event and no
// per-event pointer for the garbage collector to scan. An event is its name's id,
// then Rank, Level, Iter, TS and Dur as zigzag varints, then its field count
// and each field as its key's id followed by the value's 8 raw little-endian
// bytes; names and field keys are interned to ids per recorder. A reader
// gets back exactly what was emitted, every float bit included, except that
// an empty Fields map reads back as nil. The log is addressed by uint32
// offsets, which bounds one recorder to 4 GiB of encoded events.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	log    []byte        // encoded events; bytes once written never change
	offs   []uint32      // offs[i] is where event i starts in log
	names  []string      // names[id] is the string interned as id
	byName []uint32      // the ids ordered for lookup; see idLocked
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

// Emit appends e. e.Fields is read, not kept.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.offs = append(r.offs, uint32(len(r.log)))
	b := binary.AppendUvarint(r.log, r.idLocked(e.Name))
	for _, x := range [...]int64{int64(e.Rank), int64(e.Level), int64(e.Iter), e.TS, e.Dur} {
		b = binary.AppendVarint(b, x)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Fields)))
	for k, v := range e.Fields {
		b = binary.AppendUvarint(b, r.idLocked(k))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	r.log = b
	r.notifyLocked()
	r.mu.Unlock()
}

// idLocked returns s's interned id, interning it on first sight. byName
// orders the ids by name length, then by name, so that most steps of the
// search compare two lengths, not two strings.
func (r *Recorder) idLocked(s string) uint64 {
	lo, hi := 0, len(r.byName)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t := r.names[r.byName[m]]; len(t) < len(s) || len(t) == len(s) && t < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(r.byName) && r.names[r.byName[lo]] == s {
		return uint64(r.byName[lo])
	}
	id := uint32(len(r.names))
	r.names = append(r.names, s)
	r.byName = slices.Insert(r.byName, lo, id)
	return uint64(id)
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
	return len(r.offs)
}

// Events returns the recorded events sorted by (TS, Rank).
func (r *Recorder) Events() []Event {
	out, _ := r.EventsSince(0)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// EventsSince returns the events appended after the first n, in append
// order, plus the new cursor (the total recorded count). Telemetry
// publishers use it to ship each event exactly once across periodic
// flushes: pass the previous cursor, keep the returned one.
func (r *Recorder) EventsSince(n int) ([]Event, int) {
	r.mu.Lock()
	// Appends only write past these lengths, so the views decode unlocked.
	log, offs, names := r.log, r.offs, r.names
	r.mu.Unlock()
	total := len(offs)
	if n < 0 {
		n = 0
	}
	if n >= total {
		return nil, total
	}
	out := make([]Event, total-n)
	for i := range out {
		out[i] = decodeEvent(log[offs[n+i]:], names)
	}
	return out, total
}

// decodeEvent decodes the event b starts with, in the layout Emit writes.
func decodeEvent(b []byte, names []string) Event {
	uvarint := func() uint64 {
		x, k := binary.Uvarint(b)
		b = b[k:]
		return x
	}
	varint := func() int64 {
		x, k := binary.Varint(b)
		b = b[k:]
		return x
	}
	e := Event{Name: names[uvarint()]}
	e.Rank, e.Level, e.Iter = int(varint()), int(varint()), int(varint())
	e.TS, e.Dur = varint(), varint()
	if nf := uvarint(); nf > 0 {
		e.Fields = make(map[string]float64, nf)
		for ; nf > 0; nf-- {
			k := names[uvarint()]
			e.Fields[k] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	return e
}
