package edgetable

import (
	"encoding/binary"
	"testing"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
)

// Fuzz targets for the frozen CSR: arbitrary insertion sequences are
// replayed into engine-style hash shards, frozen, and the CSR sweep must
// hold exactly the shards' entries. Corpus bytes are consumed as
// 9-byte (src, dst, weight) records; the partition geometry is drawn from
// the first two bytes so the LocalIndex/Owns arithmetic is fuzzed too.

// fuzzTriples decodes the corpus into a partition, shard set and triple
// list. Destinations are folded onto this rank's owned id stripe (a
// freeze of a foreign destination panics by contract, which is not what
// these targets probe).
func fuzzTriples(data []byte) (graph.Partition, int, []*Table, [][3]float64, bool) {
	if len(data) < 2 {
		return graph.Partition{}, 0, nil, nil, false
	}
	size := 1 + int(data[0])%4
	part := graph.Partition{Rank: int(data[1]) % size, Size: size}
	shardCount := 1 + int(data[0]>>4)%3
	data = data[2:]

	const idBound = 1 << 12
	var triples [][3]float64
	for len(data) >= 9 {
		src := binary.LittleEndian.Uint32(data[0:4]) % idBound
		dst := binary.LittleEndian.Uint32(data[4:8]) % idBound
		// Fold dst onto the owned stripe: owner(v) = v mod size.
		dst = dst - dst%uint32(size) + uint32(part.Rank)
		// Weights include zero and negatives: delta propagation both
		// subtracts and accumulates entries to exactly zero.
		w := float64(int(data[8])-128) / 8
		triples = append(triples, [3]float64{float64(src), float64(dst), w})
		data = data[9:]
	}
	if len(triples) == 0 {
		return graph.Partition{}, 0, nil, nil, false
	}
	nLoc := part.MaxLocalCount(idBound)
	return part, nLoc, buildShards(part, shardCount, triples), triples, true
}

func fuzzSeed(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 1, 0, 0, 0, 2, 0, 0, 0, 200})
	f.Add([]byte{0x13, 0x02,
		5, 0, 0, 0, 7, 0, 0, 0, 100,
		5, 0, 0, 0, 7, 0, 0, 0, 156, // same pair, accumulates toward zero
		9, 1, 0, 0, 3, 2, 0, 0, 0})
	f.Add([]byte{0x21, 0x01, 255, 255, 0, 0, 255, 255, 0, 0, 128})
}

// FuzzCSRFromHash: freeze arbitrary insertion sequences and assert the CSR
// sweep visits exactly the entries of the hash shards, each once — bit-for-bit
// on weights.
func FuzzCSRFromHash(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		part, nLoc, shards, _, ok := fuzzTriples(data)
		if !ok {
			t.Skip()
		}
		assertCSREqualsShards(t, FreezeCSR(part, nLoc, shards...), shards)
	})
}

// FuzzStoreIterOrder: the frozen iteration order is a deterministic
// function of the insertion sequence — two freezes of the same sequence
// produce the identical entry order (what keeps float accumulation over a
// sweep reproducible) and Range is row-major.
func FuzzStoreIterOrder(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		part, nLoc, shards, triples, ok := fuzzTriples(data)
		if !ok {
			t.Skip()
		}
		shardCount := len(shards)
		type ent struct {
			key uint64
			w   float64
		}
		collect := func(c *CSR) []ent {
			var out []ent
			c.Range(func(key uint64, w float64) bool {
				out = append(out, ent{key, w})
				return true
			})
			return out
		}
		a := collect(FreezeCSR(part, nLoc, shards...))
		b := collect(FreezeCSR(part, nLoc, buildShards(part, shardCount, triples)...))
		if len(a) != len(b) {
			t.Fatalf("rebuild changed entry count: %d vs %d", len(a), len(b))
		}
		last := -1
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("entry %d differs across rebuilds: %+v vs %+v", i, a[i], b[i])
			}
			_, dst := hashfn.Unpack32(a[i].key)
			if li := part.LocalIndex(graph.V(dst)); li < last {
				t.Fatalf("Range not row-major at entry %d: row %d after %d", i, li, last)
			} else {
				last = li
			}
		}
	})
}
