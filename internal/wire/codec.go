package wire

import "fmt"

// Typed codecs over the Buffer/Reader primitives. Three families:
//
//   - Triple: the (a, b, w) record of the weighted message family —
//     (srcComm, dstComm, weight) in reconstruction, an edge in the rank-0
//     gather and the symmetry check.
//   - Pair: the 8-byte (a, b) record of state propagation — (vertex,
//     community) in Louvain, (vertex, label) in label propagation: the
//     weight never travels, it sits in the receiver's rows.
//   - Slice codecs: length-prefixed vectors for collective payloads (uint64
//     elements as uvarints, float64 elements at their 8-byte width), and a
//     delta-varint assignment codec for gathered label vectors, which are
//     near-sorted id-dense sequences that compress well under zigzag delta.
//
// All of them round-trip exactly: decode(encode(x)) == x including float
// bit patterns (NaN payloads survive).

// Triple is one (a, b, w) wire record.
type Triple struct {
	A, B uint32
	W    float64
}

// TripleSize is the fixed encoded size of one Triple in bytes.
const TripleSize = 16

// PutTriple appends t as fixed-width (u32, u32, f64).
func (b *Buffer) PutTriple(t Triple) {
	b.PutU32(t.A)
	b.PutU32(t.B)
	b.PutF64(t.W)
}

// Triple decodes one triple (zero value after an error).
func (r *Reader) Triple() Triple {
	var t Triple
	t.A = r.U32()
	t.B = r.U32()
	t.W = r.F64()
	return t
}

// PairSize is the fixed encoded size of one (a, b) pair in bytes.
const PairSize = 8

// PutPair appends (a, b) as fixed-width (u32, u32), in one 8-byte append.
func (b *Buffer) PutPair(x, y uint32) {
	b.PutU64(uint64(x) | uint64(y)<<32)
}

// Pair decodes one (a, b) pair (zeros after an error).
func (r *Reader) Pair() (x, y uint32) {
	v := r.U64()
	return uint32(v), uint32(v >> 32)
}

// PutU64s appends a length-prefixed uint64 vector, each element a uvarint:
// the counts it carries (histogram bins) are mostly small or zero, so a
// vector is a fraction of its 8-byte-per-element width.
func (b *Buffer) PutU64s(xs []uint64) {
	b.PutUvarint(uint64(len(xs)))
	for _, x := range xs {
		b.PutUvarint(x)
	}
}

// U64s decodes a length-prefixed uint64 vector into dst.
func (r *Reader) U64s(dst []uint64) []uint64 {
	n := r.count("uint64 vector", 1) // every uvarint takes >= 1 byte
	if r.err != nil {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint64, n)
	}
	for i := range dst {
		dst[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return dst
}

// PutF64s appends a length-prefixed float64 vector (exact bit patterns).
func (b *Buffer) PutF64s(xs []float64) {
	b.PutUvarint(uint64(len(xs)))
	b.Grow(8 * len(xs))
	for _, x := range xs {
		b.PutF64(x)
	}
}

// F64s decodes a length-prefixed float64 vector into dst.
func (r *Reader) F64s(dst []float64) []float64 {
	n := r.count("float64 vector", 8)
	if r.err != nil {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = r.F64()
	}
	return dst
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// PutAssign appends an assignment plane: a length prefix followed by the
// zigzag-encoded first-difference of the vector, varint-packed. Gathered
// community/label vectors start as the identity and coarsen toward few
// distinct labels, so consecutive differences are small and the plane is
// typically a fraction of the 4·n fixed encoding.
func (b *Buffer) PutAssign(xs []uint32) {
	b.PutUvarint(uint64(len(xs)))
	prev := int64(0)
	for _, x := range xs {
		b.PutUvarint(zigzag(int64(x) - prev))
		prev = int64(x)
	}
}

// Assign decodes an assignment plane into dst (reused when large enough),
// returning the filled slice (nil after an error).
func (r *Reader) Assign(dst []uint32) []uint32 {
	n := r.count("assignment", 1) // every delta takes >= 1 byte
	if r.err != nil {
		return nil
	}
	dst = growU32(dst, n)
	prev := int64(0)
	for i := range dst {
		v := prev + unzigzag(r.Uvarint())
		if r.err != nil {
			return nil
		}
		if v < 0 || v > int64(^uint32(0)) {
			r.err = fmt.Errorf("wire: assignment value %d outside uint32 range", v)
			return nil
		}
		dst[i] = uint32(v)
		prev = v
	}
	return dst
}

func growU32(dst []uint32, n int) []uint32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint32, n)
}
