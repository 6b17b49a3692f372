package graph

import (
	"testing"
	"testing/quick"
)

func TestPartitionOwnerModulo(t *testing.T) {
	p := Partition{Rank: 1, Size: 4}
	if p.Owner(5) != 1 || p.Owner(8) != 0 {
		t.Errorf("Owner wrong: Owner(5)=%d Owner(8)=%d", p.Owner(5), p.Owner(8))
	}
	if !p.Owns(5) || p.Owns(6) {
		t.Error("Owns wrong")
	}
}

func TestLocalIndexGlobalIDRoundTrip(t *testing.T) {
	f := func(v uint32, rank, size uint8) bool {
		s := int(size%8) + 1
		p := Partition{Rank: int(rank) % s, Size: s}
		// Force v to be owned by p.
		v = v - v%uint32(s) + uint32(p.Rank)
		return p.GlobalID(p.LocalIndex(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocalCountSumsToN(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 7, 100, 101, 1024} {
			total := 0
			for r := 0; r < size; r++ {
				p := Partition{Rank: r, Size: size}
				c := p.LocalCount(n)
				total += c
				if c > p.MaxLocalCount(n) {
					t.Errorf("size=%d n=%d rank=%d: LocalCount %d > MaxLocalCount %d", size, n, r, c, p.MaxLocalCount(n))
				}
			}
			if total != n {
				t.Errorf("size=%d n=%d: counts sum to %d", size, n, total)
			}
		}
	}
}

func TestSplitEdgesDeliversBothOrientations(t *testing.T) {
	el := EdgeList{{0, 1, 2}, {2, 2, 1}} // one edge, one self-loop
	parts := SplitEdges(el, 2)
	// Edge {0,1}: orientation (0,1) to owner(1)=1; (1,0) to owner(0)=0.
	// Self-loop (2,2) once to owner(2)=0.
	if len(parts[0]) != 2 || len(parts[1]) != 1 {
		t.Fatalf("part sizes %d/%d, want 2/1", len(parts[0]), len(parts[1]))
	}
	find := func(list EdgeList, u, v V) bool {
		for _, e := range list {
			if e.U == u && e.V == v {
				return true
			}
		}
		return false
	}
	if !find(parts[0], 1, 0) || !find(parts[0], 2, 2) || !find(parts[1], 0, 1) {
		t.Errorf("unexpected split: %v / %v", parts[0], parts[1])
	}
}

// TestSplitEdgesPartsDoNotAlias appends to every part but the last and
// holds the part after it unchanged: the parts share one allocation, and
// cap == len makes append copy a part rather than write into its neighbour.
func TestSplitEdgesPartsDoNotAlias(t *testing.T) {
	el := EdgeList{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 4, 5}}
	parts := SplitEdges(el, 3)
	for r := 0; r+1 < len(parts); r++ {
		next := append(EdgeList(nil), parts[r+1]...)
		_ = append(parts[r], Edge{9, 9, 9})
		for i, e := range parts[r+1] {
			if e != next[i] {
				t.Fatalf("appending to part %d overwrote part %d: record %d is %v, was %v", r, r+1, i, e, next[i])
			}
		}
	}
}

func TestSplitEdgesConservesWeight(t *testing.T) {
	f := func(raw []struct{ U, V uint8 }) bool {
		el := make(EdgeList, 0, len(raw))
		for _, r := range raw {
			el = append(el, Edge{V(r.U), V(r.V), 1})
		}
		const size = 3
		parts := SplitEdges(el, size)
		// Every non-self edge appears exactly twice overall, self once.
		wantRecords := 0
		for _, e := range el {
			if e.U == e.V {
				wantRecords++
			} else {
				wantRecords += 2
			}
		}
		// The append-as-you-go split this one replaced fixes the order
		// within each part.
		p := Partition{Size: size}
		want := make([]EdgeList, size)
		for _, e := range el {
			want[p.Owner(e.V)] = append(want[p.Owner(e.V)], e)
			if e.U != e.V {
				want[p.Owner(e.U)] = append(want[p.Owner(e.U)], Edge{e.V, e.U, e.W})
			}
		}
		got := 0
		for r, part := range parts {
			if cap(part) != len(part) || len(part) != len(want[r]) {
				return false // not allocated at its exact size
			}
			for i, e := range part {
				if p.Owner(e.V) != r {
					return false // delivered to wrong rank
				}
				if e != want[r][i] {
					return false // delivered out of order
				}
				got++
			}
		}
		return got == wantRecords
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
