package edgetable

import (
	"testing"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
)

// buildShards inserts the given (src,dst,w) triples into shardCount tables
// sharded the way the engine shards its In_Table: by local index mod shard
// count. Insertion order within a shard is the triple order.
func buildShards(part graph.Partition, shardCount int, triples [][3]float64) []*Table {
	shards := make([]*Table, shardCount)
	for i := range shards {
		shards[i] = New(Config{})
	}
	for _, tr := range triples {
		src, dst := graph.V(tr[0]), graph.V(tr[1])
		li := part.LocalIndex(dst)
		shards[li%shardCount].AddPair(src, dst, tr[2])
	}
	return shards
}

// assertCSREqualsShards checks that the CSR sweep visits exactly the entries
// of the shards (which must not share a key), each once, with bit-identical
// weights.
func assertCSREqualsShards(t *testing.T, csr *CSR, shards []*Table) {
	t.Helper()
	want := make(map[uint64]float64)
	for _, sh := range shards {
		sh.Range(func(key uint64, w float64) bool {
			if _, dup := want[key]; dup {
				t.Fatalf("key %x stored in two shards", key)
			}
			want[key] = w
			return true
		})
	}
	if csr.Len() != len(want) {
		t.Fatalf("Len: csr %d != shards %d", csr.Len(), len(want))
	}
	seen := make(map[uint64]bool, len(want))
	csr.Range(func(key uint64, w float64) bool {
		if seen[key] {
			t.Fatalf("Range visited key %x twice", key)
		}
		seen[key] = true
		if hw, ok := want[key]; !ok || hw != w {
			src, dst := hashfn.Unpack32(key)
			t.Fatalf("csr entry (%d,%d) weight %v: shards hold %v,%v", src, dst, w, hw, ok)
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range visited %d distinct keys, shards hold %d", len(seen), len(want))
	}
}

func TestFreezeCSRMatchesHash(t *testing.T) {
	part := graph.Partition{Rank: 1, Size: 2}
	// Owned dsts are odd ids; duplicate (src,dst) pairs accumulate.
	triples := [][3]float64{
		{4, 1, 1.5}, {2, 1, 2}, {4, 1, 0.5}, {9, 9, 3},
		{1, 3, -1}, {1, 3, 1}, // accumulates to zero, entry must survive
		{7, 5, 0.25}, {0, 5, 4},
	}
	shards := buildShards(part, 2, triples)
	assertCSREqualsShards(t, FreezeCSR(part, 8, shards...), shards)
}

func TestCSRRowOrderIsShardInsertionOrder(t *testing.T) {
	part := graph.Partition{Rank: 0, Size: 1}
	shards := []*Table{New(Config{})}
	// One row, three entries inserted in a known order.
	shards[0].AddPair(30, 2, 1)
	shards[0].AddPair(10, 2, 2)
	shards[0].AddPair(20, 2, 3)
	csr := FreezeCSR(part, 4, shards...)
	want := [][2]float64{{30, 1}, {10, 2}, {20, 3}}
	i := 0
	csr.Range(func(key uint64, w float64) bool {
		src, dst := hashfn.Unpack32(key)
		if i < len(want) && (dst != 2 || float64(src) != want[i][0] || w != want[i][1]) {
			t.Errorf("entry %d = (%d,%d,%v), want (%v,2,%v)", i, src, dst, w, want[i][0], want[i][1])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Range visited %d entries, want %d", i, len(want))
	}
	// Range must be row-major: local indices non-decreasing.
	shards[0].AddPair(5, 0, 9)
	shards[0].AddPair(5, 3, 9)
	csr = FreezeCSR(part, 4, shards...)
	last := -1
	csr.Range(func(key uint64, _ float64) bool {
		_, dst := hashfn.Unpack32(key)
		li := part.LocalIndex(graph.V(dst))
		if li < last {
			t.Errorf("Range not row-major: row %d after %d", li, last)
		}
		last = li
		return true
	})
}

func TestCSREarlyStop(t *testing.T) {
	part := graph.Partition{Rank: 0, Size: 1}
	shards := []*Table{New(Config{})}
	for i := uint32(0); i < 10; i++ {
		shards[0].AddPair(i, i%3, 1)
	}
	csr := FreezeCSR(part, 3, shards...)
	n := 0
	csr.Range(func(uint64, float64) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("Range with early stop visited %d, want 4", n)
	}
}

func TestFreezeCSRForeignDstPanics(t *testing.T) {
	part := graph.Partition{Rank: 0, Size: 2}
	shards := []*Table{New(Config{})}
	shards[0].AddPair(3, 1, 1) // dst 1 owned by rank 1, not 0
	defer func() {
		if recover() == nil {
			t.Error("freeze of a foreign destination did not panic")
		}
	}()
	FreezeCSR(part, 2, shards...)
}

func TestFreezeReusesBuffers(t *testing.T) {
	part := graph.Partition{Rank: 0, Size: 1}
	c := new(CSR)
	big := make([][3]float64, 0, 64)
	for i := 0; i < 64; i++ {
		big = append(big, [3]float64{float64(i), float64(i % 8), float64(i) + 0.5})
	}
	c.Freeze(part, 8, buildShards(part, 2, big)...)
	if c.Len() != 64 {
		t.Fatalf("first freeze Len = %d, want 64", c.Len())
	}
	// Second freeze with fewer entries must not retain stale ones.
	small := buildShards(part, 2, big[:10])
	assertCSREqualsShards(t, c.Freeze(part, 8, small...), small)
}
