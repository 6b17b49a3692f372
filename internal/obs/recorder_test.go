package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// sameEvent reports whether got is want as a reader must see it: every
// field equal, float values bit for bit, and an empty Fields map read back
// as nil.
func sameEvent(got, want Event) bool {
	if got.Name != want.Name || got.Rank != want.Rank || got.Level != want.Level ||
		got.Iter != want.Iter || got.TS != want.TS || got.Dur != want.Dur {
		return false
	}
	if len(want.Fields) == 0 {
		return got.Fields == nil
	}
	if len(got.Fields) != len(want.Fields) {
		return false
	}
	for k, v := range want.Fields {
		g, ok := got.Fields[k]
		if !ok || math.Float64bits(g) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// checkDecoded holds every read of r — Events, and EventsSince at every
// cursor — to the events emitted into it, in order.
func checkDecoded(t *testing.T, r *Recorder, emitted []Event) {
	t.Helper()
	if r.Len() != len(emitted) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(emitted))
	}
	for n := 0; n <= len(emitted); n++ {
		got, cur := r.EventsSince(n)
		if cur != len(emitted) || len(got) != len(emitted)-n {
			t.Fatalf("EventsSince(%d): %d events, cursor %d; want %d, %d", n, len(got), cur, len(emitted)-n, len(emitted))
		}
		for i, e := range got {
			if !sameEvent(e, emitted[n+i]) {
				t.Fatalf("EventsSince(%d)[%d] = %+v, want %+v", n, i, e, emitted[n+i])
			}
		}
	}
	want := append([]Event(nil), emitted...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].TS != want[j].TS {
			return want[i].TS < want[j].TS
		}
		return want[i].Rank < want[j].Rank
	})
	for i, e := range r.Events() {
		if !sameEvent(e, want[i]) {
			t.Fatalf("Events()[%d] = %+v, want %+v", i, e, want[i])
		}
	}
}

// FuzzRecorder emits events built from the inputs — any name and key,
// negative ints, any float bits — into a NewRecorder and a zero-value
// Recorder, and holds what every read decodes to what was emitted.
func FuzzRecorder(f *testing.F) {
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		1, // the smallest subnormal
		math.Float64bits(-math.SmallestNonzeroFloat64),
		0x000fffffffffffff, // the largest subnormal
		math.Float64bits(math.MaxFloat64),
		math.Float64bits(-math.MaxFloat64),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()),
	} {
		f.Add("iteration", "q", int64(-1), int64(-300), int64(7), int64(-1), int64(math.MaxInt64), bits)
	}
	f.Add("", "", int64(math.MinInt64), int64(0), int64(math.MaxInt64), int64(math.MinInt64), int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, name, key string, rank, level, iter, ts, dur int64, bits uint64) {
		v := math.Float64frombits(bits)
		emitted := []Event{
			{Name: name, Rank: int(rank), Level: int(level), Iter: int(iter), TS: ts, Dur: dur,
				Fields: map[string]float64{key: v, key + "'": -v, "q": v}},
			{Name: "phase", Rank: int(level), TS: dur, Dur: ts},
			{Name: key, Rank: int(iter), Level: int(rank), TS: ts, Fields: map[string]float64{}},
			{Name: name, Iter: int(level), TS: -ts, Dur: -dur, Fields: map[string]float64{name: v}},
		}
		for _, r := range []*Recorder{NewRecorder(), {}} {
			for i, e := range emitted {
				r.Emit(e)
				checkDecoded(t, r, emitted[:i+1])
			}
		}
	})
}

// TestRecorderConcurrentEmitAndTail races emitters against an SSE-style
// reader (Watch, then drain the cursor, block only on an empty drain) and
// holds the reader to seeing every event once, decoded intact.
func TestRecorderConcurrentEmitAndTail(t *testing.T) {
	const emitters, each = 4, 300
	r := NewRecorder()
	seen := make(chan []Event, 1)
	go func() {
		var got []Event
		cur := 0
		for len(got) < emitters*each {
			watch := r.Watch()
			evs, next := r.EventsSince(cur)
			cur = next
			got = append(got, evs...)
			if len(evs) == 0 {
				<-watch
			}
		}
		seen <- got
	}()
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(Event{Name: "iteration", Rank: g, Iter: i, TS: r.Now(),
					Fields: map[string]float64{"rank": float64(g), "iter": float64(i), "q": 1 / float64(i+1)}})
			}
		}(g)
	}
	wg.Wait()
	got := <-seen
	next := make([]int, emitters)
	for _, e := range got {
		if e.Fields["rank"] != float64(e.Rank) || e.Fields["iter"] != float64(e.Iter) || e.Fields["q"] != 1/float64(e.Iter+1) {
			t.Fatalf("event decoded inconsistently: %+v", e)
		}
		if e.Iter != next[e.Rank] {
			t.Fatalf("rank %d: iteration %d read after %d", e.Rank, e.Iter, next[e.Rank]-1)
		}
		next[e.Rank]++
	}
	if n := r.Len(); n != emitters*each || len(got) != n {
		t.Fatalf("reader saw %d events, recorder holds %d, want %d", len(got), n, emitters*each)
	}
}

// TestRecorderEncodedSize pins what one event costs a kept recorder: the
// par-louvain iteration event (13 fields) and a field-less phase event, both
// at TS 1 000 000 µs and Dur 5 000 µs with small ids, take their encoded
// bytes plus a 4-byte offset.
func TestRecorderEncodedSize(t *testing.T) {
	iterFields := map[string]float64{}
	for _, k := range []string{"moved", "active", "eps", "dq_hat", "floor_pct", "mass", "q",
		"q_best", "find_us", "update_us", "prop_us", "comm_rounds", "comm_bytes"} {
		iterFields[k] = math.Pi
	}
	for _, tc := range []struct {
		e    Event
		want int // name id, 5 varints (8 bytes), field count, 9 bytes per field
	}{
		{Event{Name: "iteration", Rank: 1, Level: 2, Iter: 3, TS: 1_000_000, Dur: 5_000, Fields: iterFields}, 1 + 8 + 1 + 13*9},
		{Event{Name: "FIND BEST", Rank: 1, Level: 2, Iter: 3, TS: 1_000_000, Dur: 5_000}, 1 + 8 + 1},
	} {
		var r Recorder
		r.Emit(tc.e)
		if len(r.log) != tc.want || len(r.offs) != 1 {
			t.Errorf("%s event: %d log bytes and %d offsets, want %d and 1", tc.e.Name, len(r.log), len(r.offs), tc.want)
		}
		// A second event reuses the interned ids and costs the same.
		r.Emit(tc.e)
		if len(r.log) != 2*tc.want {
			t.Errorf("%s event, emitted again: log holds %d bytes, want %d", tc.e.Name, len(r.log), 2*tc.want)
		}
	}
}

// BenchmarkRecorderEmit times Emit of par-louvain's 13-field iteration
// event and reports the bytes a kept recorder retains per event.
func BenchmarkRecorderEmit(b *testing.B) {
	fields := map[string]float64{}
	for i, k := range []string{"moved", "active", "eps", "dq_hat", "floor_pct", "mass", "q",
		"q_best", "find_us", "update_us", "prop_us", "comm_rounds", "comm_bytes"} {
		fields[k] = float64(i) * 1.5
	}
	r := NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Name: "iteration", Rank: 1, Level: 2, Iter: i, TS: r.Now(), Dur: 5_000, Fields: fields})
	}
	b.StopTimer()
	b.ReportMetric(float64(len(r.log)+4*len(r.offs))/float64(b.N), "B/event")
}
