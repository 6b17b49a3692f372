package edgetable

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
)

// CSR is one level's in-edges compacted from the hash shards into a
// compressed sparse row layout keyed by the owned destination's local index.
// The engine does not use it — its refine loop reads the out rows — and it is
// kept only as the flat-array yardstick of bench/'s layer ladder (freeze cost
// and a sequential sweep next to the hash Table's slot sweep).
//
// Row order is local-index-major; within a row, entries keep the shard
// insertion order they had in the hash tables, so a sweep over a frozen CSR
// visits each row's weights in exactly the accumulation order of the source
// shards. A CSR never mutates after Freeze.
type CSR struct {
	part graph.Partition
	nLoc int

	off []int64
	src []graph.V
	w   []float64

	fill []int64 // freeze scratch, reused across Freeze calls
}

// FreezeCSR compacts the entries of the given hash shards into a new CSR.
// Every entry's destination must be owned by part and have a local index
// below nLoc (the engine's sharding invariant); a foreign destination
// panics rather than silently dropping edge weight.
func FreezeCSR(part graph.Partition, nLoc int, shards ...*Table) *CSR {
	return new(CSR).Freeze(part, nLoc, shards...)
}

// Freeze (re)builds the CSR in place from the shards, reusing the
// receiver's buffers when their capacity allows, and returns the receiver.
// The build is the engine's deterministic two-pass layout: per-row counts
// in shard order, a prefix sum, then a fill pass in the same shard order —
// so a row's entries appear in their shard insertion order.
func (c *CSR) Freeze(part graph.Partition, nLoc int, shards ...*Table) *CSR {
	if part.Size <= 0 {
		part.Size = 1
	}
	c.part = part
	c.nLoc = nLoc
	if cap(c.off) >= nLoc+1 {
		c.off = c.off[:nLoc+1]
		for i := range c.off {
			c.off[i] = 0
		}
	} else {
		c.off = make([]int64, nLoc+1)
	}
	for _, t := range shards {
		if t == nil {
			continue
		}
		t.Range(func(key uint64, _ float64) bool {
			c.off[c.rowIndex(key)+1]++
			return true
		})
	}
	for i := 0; i < nLoc; i++ {
		c.off[i+1] += c.off[i]
	}
	total := int(c.off[nLoc])
	if cap(c.src) >= total {
		c.src = c.src[:total]
		c.w = c.w[:total]
	} else {
		c.src = make([]graph.V, total)
		c.w = make([]float64, total)
	}
	if cap(c.fill) >= nLoc {
		c.fill = c.fill[:nLoc]
		for i := range c.fill {
			c.fill[i] = 0
		}
	} else {
		c.fill = make([]int64, nLoc)
	}
	for _, t := range shards {
		if t == nil {
			continue
		}
		t.Range(func(key uint64, w float64) bool {
			src, _ := hashfn.Unpack32(key)
			li := c.rowIndex(key)
			p := c.off[li] + c.fill[li]
			c.src[p] = src
			c.w[p] = w
			c.fill[li]++
			return true
		})
	}
	return c
}

// rowIndex maps a packed key to its row, enforcing the ownership invariant.
func (c *CSR) rowIndex(key uint64) int {
	_, dst := hashfn.Unpack32(key)
	if !c.part.Owns(dst) {
		panic(fmt.Sprintf("edgetable: CSR freeze: destination %d owned by rank %d, not %d",
			dst, c.part.Owner(dst), c.part.Rank))
	}
	li := c.part.LocalIndex(dst)
	if li >= c.nLoc {
		panic(fmt.Sprintf("edgetable: CSR freeze: local index %d outside row space %d", li, c.nLoc))
	}
	return li
}

// Len returns the number of stored entries.
func (c *CSR) Len() int { return len(c.src) }

// Range iterates every entry row-major: rows in ascending local index,
// entries within a row in frozen (shard insertion) order.
func (c *CSR) Range(fn func(key uint64, w float64) bool) {
	for li := 0; li < c.nLoc; li++ {
		dst := c.part.GlobalID(li)
		for i := c.off[li]; i < c.off[li+1]; i++ {
			if !fn(hashfn.Pack32(c.src[i], dst), c.w[i]) {
				return
			}
		}
	}
}
