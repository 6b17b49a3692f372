package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTripleRoundTrip: decode(encode(x)) == x for triples, bit-exact
// weights included.
func FuzzTripleRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), float64(0))
	f.Add(uint32(1), ^uint32(0), math.Pi)
	f.Add(^uint32(0), uint32(7), math.Inf(-1))
	f.Add(uint32(3), uint32(9), math.NaN())
	f.Fuzz(func(t *testing.T, a, b uint32, w float64) {
		var buf Buffer
		buf.PutTriple(Triple{a, b, w})
		r := NewReader(buf.Bytes())
		got := r.Triple()
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if got.A != a || got.B != b || math.Float64bits(got.W) != math.Float64bits(w) {
			t.Fatalf("round trip (%d,%d,%x) -> (%d,%d,%x)",
				a, b, math.Float64bits(w), got.A, got.B, math.Float64bits(got.W))
		}
		if r.More() {
			t.Fatal("leftover bytes")
		}
	})
}

// FuzzSliceRoundTrip interprets the fuzz payload as u64 and f64 vectors and
// round-trips each through its length-prefixed codec. The large-value seeds
// sit at the uvarint's width steps: 2⁶³ and 2⁶⁴−1 take the full ten bytes,
// 2⁵⁶ and 2⁶³−1 nine, and 127 | 128 the one-to-two-byte boundary.
func FuzzSliceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	var large []byte
	for _, x := range []uint64{1 << 63, ^uint64(0), 1 << 56, 1<<63 - 1, 127, 128, 0} {
		large = binary.LittleEndian.AppendUint64(large, x)
	}
	f.Add(large)
	f.Fuzz(func(t *testing.T, data []byte) {
		u64 := make([]uint64, 0, len(data)/8)
		f64 := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			x := binary.LittleEndian.Uint64(data[i:])
			u64 = append(u64, x)
			f64 = append(f64, math.Float64frombits(x))
		}

		var b Buffer
		b.PutU64s(u64)
		b.PutF64s(f64)
		r := NewReader(b.Bytes())
		gotU64 := r.U64s(nil)
		gotF64 := r.F64s(nil)
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if r.More() {
			t.Fatal("leftover bytes")
		}
		if len(gotU64) != len(u64) || len(gotF64) != len(f64) {
			t.Fatalf("length mismatch: %d/%d want %d/%d",
				len(gotU64), len(gotF64), len(u64), len(f64))
		}
		for i := range u64 {
			if gotU64[i] != u64[i] {
				t.Fatalf("u64[%d] = %d, want %d", i, gotU64[i], u64[i])
			}
		}
		for i := range f64 {
			if math.Float64bits(gotF64[i]) != math.Float64bits(f64[i]) {
				t.Fatalf("f64[%d] bits differ", i)
			}
		}
	})
}

// FuzzAssignRoundTrip round-trips assignment planes built from the fuzz
// payload's u32 words.
func FuzzAssignRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xab}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]uint32, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			xs = append(xs, binary.LittleEndian.Uint32(data[i:]))
		}
		var b Buffer
		b.PutAssign(xs)
		r := NewReader(b.Bytes())
		got := r.Assign(nil)
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if r.More() {
			t.Fatal("leftover bytes")
		}
		if len(got) != len(xs) {
			t.Fatalf("len %d, want %d", len(got), len(xs))
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("[%d] = %d, want %d", i, got[i], xs[i])
			}
		}
	})
}

// FuzzTelemetryBatch round-trips batches built from the fuzz payload and
// also feeds the raw payload straight to the decoder: arbitrary bytes must
// surface as errors, never panics or runaway allocation.
func FuzzTelemetryBatch(f *testing.F) {
	var seed Buffer
	seed.PutTelemetryBatch(&TelemetryBatch{
		Rank: 1, Seq: 9,
		Metrics: []MetricRec{
			{Name: "c", Kind: MetricCounter, Value: 3},
			{Name: "h", Kind: MetricHistogram, Bounds: []float64{1}, Buckets: []uint64{2, 0}, Count: 2, Sum: 0.5},
		},
		Events: []EventRec{{Name: "e", Rank: 1, Level: 2, Iter: 3, TS: 4, Dur: 5,
			FieldKeys: []string{"k"}, FieldVals: []float64{6}}},
	})
	f.Add([]byte{}, uint32(0), uint64(0))
	f.Add(seed.Bytes(), uint32(2), uint64(7))
	f.Add(bytes.Repeat([]byte{0xff}, 48), uint32(0), uint64(0))
	// A histogram whose bounds vector claims ~2⁶⁴ elements: 8*n wrapped and make panicked.
	f.Add([]byte("\x01000\x02\x010\x02\xf4\xf4\xf4\xf4\xf4\xf4\xf4\xf40"), uint32(2), uint64(43))
	f.Fuzz(func(t *testing.T, data []byte, rank uint32, seq uint64) {
		// Arbitrary bytes into the decoder: must not panic.
		if tb, err := NewReader(data).TelemetryBatch(); err == nil {
			// Whatever decoded must re-encode and decode to the same value.
			var b Buffer
			b.PutTelemetryBatch(tb)
			tb2, err2 := NewReader(b.Bytes()).TelemetryBatch()
			if err2 != nil {
				t.Fatalf("re-decode of valid batch failed: %v", err2)
			}
			if tb2.Rank != tb.Rank || tb2.Seq != tb.Seq || tb2.Final != tb.Final ||
				len(tb2.Metrics) != len(tb.Metrics) || len(tb2.Events) != len(tb.Events) {
				t.Fatalf("re-encode drift: %+v vs %+v", tb, tb2)
			}
		}

		// Structured batch from the payload: must round-trip exactly.
		batch := &TelemetryBatch{Rank: rank, Seq: seq, Final: len(data)%2 == 1}
		for i := 0; i+9 <= len(data) && len(batch.Metrics) < 16; i += 9 {
			batch.Metrics = append(batch.Metrics, MetricRec{
				Name:  string(data[i : i+1]),
				Kind:  data[i+1] % 2, // counter or gauge
				Value: math.Float64frombits(binary.LittleEndian.Uint64(data[i+1 : i+9])),
			})
		}
		var b Buffer
		b.PutTelemetryBatch(batch)
		got, err := NewReader(b.Bytes()).TelemetryBatch()
		if err != nil {
			t.Fatalf("decode error: %v", err)
		}
		if got.Rank != batch.Rank || got.Seq != batch.Seq || got.Final != batch.Final ||
			len(got.Metrics) != len(batch.Metrics) {
			t.Fatalf("round trip mismatch: %+v vs %+v", batch, got)
		}
		for i := range batch.Metrics {
			w, g := batch.Metrics[i], got.Metrics[i]
			if w.Name != g.Name || w.Kind != g.Kind ||
				math.Float64bits(w.Value) != math.Float64bits(g.Value) {
				t.Fatalf("metric[%d] mismatch: %+v vs %+v", i, w, g)
			}
		}
	})
}

// FuzzReaderNeverPanics feeds arbitrary bytes to every decoder: malformed
// planes must surface as latched errors, never panics or runaway
// allocation.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(4))
	f.Add([]byte("\xc8\xc8\xc8\xc8\xc8\xc8\xc8\xc80"), uint8(0x96)) // a u64 vector of ~2⁶⁴ elements: 8*n wraps
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		var r Reader
		r.Reset(data)
		for i := 0; i < 64 && r.More(); i++ {
			switch which % 8 {
			case 0:
				r.U32()
			case 1:
				r.U64()
			case 2:
				r.F64()
			case 3:
				r.Uvarint()
			case 4:
				r.Triple()
			case 5:
				r.Assign(nil)
			case 6:
				r.U64s(nil)
			case 7:
				r.Pair()
			}
			which++
		}
		// Progress invariant: either the plane is consumed or an error is
		// latched; Remaining never goes negative.
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		if r.More() && r.Err() != nil {
			t.Fatal("More() true after error")
		}
	})
}
