package edgetable

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
)

// CSR is the frozen flat-array Store: one level's in-edges compacted from
// the hash shards into a compressed sparse row layout keyed by the owned
// destination's local index. The hash Table is built for the paper's
// dynamic insert-accumulate workload; once a level's graph stops mutating
// the refine loop only ever reads it, and a CSR serves those reads from
// three contiguous arrays — sequential row sweeps instead of slot probing,
// O(1) degrees, and aggregate statistics precomputed at freeze time
// instead of a full slot sweep per level event.
//
// Row order is local-index-major; within a row, entries keep the shard
// insertion order they had in the hash tables, so a sweep over a frozen
// CSR visits each row's weights in exactly the accumulation order of the
// source shards (bit-identical float folds). A CSR never mutates: the next
// level is rebuilt in the hash shards and frozen again.
type CSR struct {
	part graph.Partition
	nLoc int

	off []int64
	src []graph.V
	w   []float64

	fill  []int64 // freeze scratch, reused across levels
	stats Stats
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
	c.computeStats()
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

// NewCSR wraps already-built adjacency arrays as a frozen Store without
// copying: off must hold nLoc+1 monotone offsets with off[nLoc] ==
// len(src) == len(w). The CSR aliases the arrays — it is valid until the
// caller mutates them (the engine rebuilds them at the next levelInit).
func NewCSR(part graph.Partition, nLoc int, off []int64, src []graph.V, w []float64) *CSR {
	if part.Size <= 0 {
		part.Size = 1
	}
	if len(off) != nLoc+1 || int(off[nLoc]) != len(src) || len(src) != len(w) {
		panic(fmt.Sprintf("edgetable: NewCSR shape mismatch: off %d rows %d entries, src %d, w %d",
			len(off), nLoc, len(src), len(w)))
	}
	c := &CSR{part: part, nLoc: nLoc, off: off, src: src, w: w}
	c.computeStats()
	return c
}

// Rows returns the number of local rows (owned destination slots).
func (c *CSR) Rows() int { return c.nLoc }

// Len returns the number of stored entries.
func (c *CSR) Len() int { return len(c.src) }

// Row returns dst-local-index li's sources and weights without copying.
func (c *CSR) Row(li int) ([]graph.V, []float64) {
	lo, hi := c.off[li], c.off[li+1]
	return c.src[lo:hi], c.w[lo:hi]
}

// Arrays exposes the underlying offset/source/weight arrays without
// copying, for callers (the engine's scatter phases) that sweep rows
// directly.
func (c *CSR) Arrays() (off []int64, src []graph.V, w []float64) {
	return c.off, c.src, c.w
}

// Degree returns the number of in-entries of dst in O(1); zero for
// destinations outside this partition.
func (c *CSR) Degree(dst graph.V) int {
	if !c.part.Owns(dst) {
		return 0
	}
	li := c.part.LocalIndex(dst)
	if li >= c.nLoc {
		return 0
	}
	return int(c.off[li+1] - c.off[li])
}

// Get returns the accumulated weight of a packed (src,dst) key by scanning
// dst's row — O(degree); the hash shards answer the same query in O(1),
// which is why mutation-heavy phases stay on the hash backend.
func (c *CSR) Get(key uint64) (float64, bool) {
	s, d := hashfn.Unpack32(key)
	return c.GetPair(s, d)
}

// GetPair returns the accumulated weight of the (src,dst) tuple.
func (c *CSR) GetPair(src, dst graph.V) (float64, bool) {
	if !c.part.Owns(dst) {
		return 0, false
	}
	li := c.part.LocalIndex(dst)
	if li >= c.nLoc {
		return 0, false
	}
	for i := c.off[li]; i < c.off[li+1]; i++ {
		if c.src[i] == src {
			return c.w[i], true
		}
	}
	return 0, false
}

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

// RangeOf iterates dst's row in frozen order.
func (c *CSR) RangeOf(dst graph.V, fn func(src graph.V, w float64) bool) {
	if !c.part.Owns(dst) {
		return
	}
	li := c.part.LocalIndex(dst)
	if li >= c.nLoc {
		return
	}
	for i := c.off[li]; i < c.off[li+1]; i++ {
		if !fn(c.src[i], c.w[i]) {
			return
		}
	}
}

// Stats returns the statistics computed at freeze time. The hash-layout
// fields translate as: Slots is the dense entry count (LoadFactor 1 by
// construction), a "bin" is a non-empty row (AvgBinLen/MaxBinLen are row
// lengths), and MeanProbe is the expected linear-scan cost of a successful
// GetPair — within a row of length L the i-th entry costs i probes, so
// L(L+1)/2 per row averaged over all entries, mirroring the probing
// layout's cluster accounting.
func (c *CSR) Stats() Stats { return c.stats }

func (c *CSR) computeStats() {
	s := Stats{
		Entries:      len(c.src),
		Slots:        uint64(len(c.src)),
		PerPartition: []int{len(c.src)},
	}
	if s.Entries > 0 {
		s.LoadFactor = 1
	}
	var probeCost float64
	totalLen := 0
	for li := 0; li < c.nLoc; li++ {
		L := int(c.off[li+1] - c.off[li])
		if L == 0 {
			continue
		}
		s.NonEmpty++
		totalLen += L
		probeCost += float64(L*(L+1)) / 2
		if L > s.MaxBinLen {
			s.MaxBinLen = L
		}
	}
	if s.NonEmpty > 0 {
		s.AvgBinLen = float64(totalLen) / float64(s.NonEmpty)
	}
	if s.Entries > 0 {
		s.MeanProbe = probeCost / float64(s.Entries)
	}
	c.stats = s
}

// String summarizes the CSR for debugging.
func (c *CSR) String() string {
	return fmt.Sprintf("edgetable.CSR{rows=%d entries=%d rank=%d/%d}",
		c.nLoc, len(c.src), c.part.Rank, c.part.Size)
}
