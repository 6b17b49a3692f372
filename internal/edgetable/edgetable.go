// Package edgetable implements the paper's hash-based edge storage
// (Section IV-A): tables keyed by packed (t1,t2) tuples holding weighted
// triples ((t1,t2),w), with accumulate-on-collision semantics. The paper's
// In_Table (in-edges, rebuilt once per outer loop) and Out_Table
// (edge→community aggregations, rebuilt every inner iteration) are instances
// of Table. internal/core carries neither any more — a level's in-edges are
// sorted rows (core/reconstruct.go buildRows), read as out rows too
// (core/outrows.go) — so the package is the paper's data structure on its
// own: the hash study of Figure 6 (internal/exp), the benchmark's ladder, and
// the oracle core's row tests hold the sort to.
//
// Two physical layouts are provided:
//
//   - Probing: open addressing with linear probing, the layout the paper's
//     pseudocode uses ("place the triple with linear probing").
//   - Chained: per-bin chains, used by the hash-behaviour experiments
//     (Figure 6) where "bin length" statistics are defined.
//
// The conceptual table of M slots is split into contiguous partitions, one
// per worker thread, mirroring the paper's "bins of each node's hash table
// are partitioned uniformly across the threads". Partition statistics give
// the entries-per-thread series of Figure 6(a).
package edgetable

import (
	"fmt"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
)

// Layout selects the physical bucket organization.
type Layout uint8

const (
	// Probing is open addressing with linear probing (the default).
	Probing Layout = iota
	// Chained stores a small chain per bin.
	Chained
)

// String names the layout in experiment output.
func (l Layout) String() string {
	if l == Chained {
		return "chained"
	}
	return "probing"
}

// Config parameterizes a Table. The zero value is usable: Fibonacci hash,
// probing layout, one partition, load factor 1/4 (the paper's compromise
// between speed and memory).
type Config struct {
	Hash       hashfn.Kind
	Layout     Layout
	Partitions int     // thread partitions; <=0 means 1
	LoadFactor float64 // target entries/slots; <=0 means 0.25
	Capacity   int     // initial entry capacity hint; <=0 means 64
}

func (c Config) normalized() Config {
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 0.25
	}
	// Open addressing degrades sharply past ~0.9 occupancy; chains do not.
	if c.Layout == Probing && c.LoadFactor > 0.9 {
		c.LoadFactor = 0.9
	}
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	return c
}

const emptyKey = ^uint64(0) // sentinel: no stored key may equal 2^64-1

type chainEntry struct {
	key uint64
	w   float64
}

// Table is a hash table from packed edge keys to accumulated weights.
// It is not safe for concurrent mutation; concurrent Range over disjoint
// partitions is safe.
type Table struct {
	cfg   Config
	slots uint64 // conceptual table size M

	// Probing layout. occ journals the occupied slots in insertion
	// order, making Range O(entries) instead of O(slots) at a load factor
	// of 1/4.
	keys []uint64
	vals []float64
	occ  []uint64

	// Chained layout.
	bins [][]chainEntry

	length  int
	growths int
}

// New creates an empty table sized for cfg.Capacity entries at the
// configured load factor.
func New(cfg Config) *Table {
	cfg = cfg.normalized()
	t := &Table{cfg: cfg}
	t.alloc(slotsFor(cfg.Capacity, cfg.LoadFactor, cfg.Partitions))
	return t
}

func slotsFor(entries int, load float64, parts int) uint64 {
	s := uint64(float64(entries)/load) + 1
	min := uint64(parts * 4)
	if s < min {
		s = min
	}
	return s
}

func (t *Table) alloc(slots uint64) {
	t.slots = slots
	t.length = 0
	if t.cfg.Layout == Probing {
		t.keys = make([]uint64, slots)
		t.vals = make([]float64, slots)
		for i := range t.keys {
			t.keys[i] = emptyKey
		}
		t.occ = nil
		return
	}
	t.bins = make([][]chainEntry, slots)
}

// partitionRange returns the slot range [lo,hi) of partition p.
func (t *Table) partitionRange(p int) (lo, hi uint64) {
	P := uint64(t.cfg.Partitions)
	lo = uint64(p) * t.slots / P
	hi = (uint64(p) + 1) * t.slots / P
	return
}

// slotOf maps a key to its home slot and the bounds of its partition.
// Probing wraps within the partition so that partitions stay disjoint
// (each thread owns a contiguous bin range, as in the paper).
func (t *Table) slotOf(key uint64) (slot, lo, hi uint64) {
	g := hashfn.Index(t.cfg.Hash, key, t.slots)
	if t.cfg.Partitions == 1 {
		return g, 0, t.slots
	}
	P := uint64(t.cfg.Partitions)
	p := g * P / t.slots
	lo, hi = t.partitionRange(int(p))
	return g, lo, hi
}

// PartitionOf returns the partition that key hashes into.
func (t *Table) PartitionOf(key uint64) int {
	g := hashfn.Index(t.cfg.Hash, key, t.slots)
	return int(g * uint64(t.cfg.Partitions) / t.slots)
}

// Len returns the number of distinct keys stored.
func (t *Table) Len() int { return t.length }

// Slots returns the current conceptual table size M.
func (t *Table) Slots() uint64 { return t.slots }

// Partitions returns the configured number of thread partitions.
func (t *Table) Partitions() int { return t.cfg.Partitions }

// Growths returns how many times the table has grown; a fixed-size
// production deployment would size the table to keep this at zero.
func (t *Table) Growths() int { return t.growths }

// Add accumulates w onto key, inserting it if absent (the insert/update of
// Algorithm 3 lines 7-11 and Algorithm 5 lines 7-11). It reports whether
// the key was newly inserted (false when an existing entry accumulated).
func (t *Table) Add(key uint64, w float64) bool {
	if key == emptyKey {
		panic("edgetable: reserved key")
	}
	if float64(t.length+1) > float64(t.slots)*t.cfg.LoadFactor {
		t.grow()
	}
	if t.cfg.Layout == Probing {
		return t.addProbing(key, w)
	}
	return t.addChained(key, w)
}

// AddPair accumulates w onto the packed (a,b) tuple key, reporting whether
// the key is new.
func (t *Table) AddPair(a, b graph.V, w float64) bool {
	return t.Add(hashfn.Pack32(a, b), w)
}

func (t *Table) addProbing(key uint64, w float64) bool {
	for {
		slot, lo, hi := t.slotOf(key)
		for n := uint64(0); n < hi-lo; n++ {
			k := t.keys[slot]
			if k == key {
				t.vals[slot] += w
				return false
			}
			if k == emptyKey {
				t.keys[slot] = key
				t.vals[slot] = w
				t.occ = append(t.occ, slot)
				t.length++
				return true
			}
			slot++
			if slot == hi {
				slot = lo
			}
		}
		// The home partition is full (a skewed hash can saturate one
		// partition long before the global load factor is reached).
		t.grow()
	}
}

func (t *Table) addChained(key uint64, w float64) bool {
	slot, _, _ := t.slotOf(key)
	bin := t.bins[slot]
	for i := range bin {
		if bin[i].key == key {
			bin[i].w += w
			return false
		}
	}
	t.bins[slot] = append(bin, chainEntry{key, w})
	t.length++
	return true
}

// Get returns the accumulated weight for key.
func (t *Table) Get(key uint64) (float64, bool) {
	if t.length == 0 || key == emptyKey {
		return 0, false
	}
	if t.cfg.Layout == Probing {
		slot, lo, hi := t.slotOf(key)
		for n := uint64(0); n < hi-lo; n++ {
			k := t.keys[slot]
			if k == key {
				return t.vals[slot], true
			}
			if k == emptyKey {
				return 0, false
			}
			slot++
			if slot == hi {
				slot = lo
			}
		}
		return 0, false
	}
	slot, _, _ := t.slotOf(key)
	for _, e := range t.bins[slot] {
		if e.key == key {
			return e.w, true
		}
	}
	return 0, false
}

// GetPair returns the accumulated weight for the packed (a,b) tuple.
func (t *Table) GetPair(a, b graph.V) (float64, bool) {
	return t.Get(hashfn.Pack32(a, b))
}

func (t *Table) grow() {
	t.growths++
	t.rehash(t.slots * 2)
}

// Reserve sizes the table to hold entries keys at the configured load
// factor, so that inserting up to that many never grows it. The contents are
// kept (and, on the probing layout, their Range order); a table already that
// large is left alone.
func (t *Table) Reserve(entries int) {
	if slots := slotsFor(entries, t.cfg.LoadFactor, t.cfg.Partitions); slots > t.slots {
		t.rehash(slots)
	}
}

// rehash moves the contents into a fresh table of the given size, in Range
// order.
func (t *Table) rehash(slots uint64) {
	old := *t
	t.alloc(slots)
	old.rangeAll(func(key uint64, w float64) bool {
		if t.cfg.Layout == Probing {
			t.addProbing(key, w)
		} else {
			t.addChained(key, w)
		}
		return true
	})
}

func (t *Table) rangeAll(fn func(key uint64, w float64) bool) {
	if t.cfg.Layout == Probing {
		for _, s := range t.occ {
			if !fn(t.keys[s], t.vals[s]) {
				return
			}
		}
		return
	}
	for _, bin := range t.bins {
		for _, e := range bin {
			if !fn(e.key, e.w) {
				return
			}
		}
	}
}

// Range calls fn for every (key, weight) pair: in insertion order on the
// probing layout (whatever the table's size or growth history), in bin order
// on the chained one. Iteration stops early when fn returns false. The order
// is deterministic for a given insertion sequence and table size.
func (t *Table) Range(fn func(key uint64, w float64) bool) {
	t.rangeAll(fn)
}

// RangePartition iterates only the entries stored in partition p. Distinct
// partitions may be ranged concurrently.
func (t *Table) RangePartition(p int, fn func(key uint64, w float64) bool) {
	lo, hi := t.partitionRange(p)
	if t.cfg.Layout == Probing {
		for i := lo; i < hi; i++ {
			if k := t.keys[i]; k != emptyKey && !fn(k, t.vals[i]) {
				return
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		for _, e := range t.bins[i] {
			if !fn(e.key, e.w) {
				return
			}
		}
	}
}

// Stats reports the occupancy statistics of Figure 6. For the chained
// layout, bin length is the chain length; for probing it is the length of
// a maximal run of occupied slots (a probe cluster). AvgBinLen averages
// only non-empty bins, as in the paper (footnote 3).
type Stats struct {
	Entries      int
	Slots        uint64
	LoadFactor   float64 // realized entries/slots
	PerPartition []int   // entries per thread partition
	AvgBinLen    float64
	MaxBinLen    int
	NonEmpty     int // non-empty bins (chained) or probe clusters (probing)
	// MeanProbe estimates the probes per successful lookup: within a bin
	// or cluster of length L the i-th entry costs up to i probes, so the
	// per-structure cost is L(L+1)/2 averaged over all entries.
	MeanProbe float64
	Growths   int
}

// Stats computes occupancy statistics over the current contents.
func (t *Table) Stats() Stats {
	s := Stats{
		Entries:      t.length,
		Slots:        t.slots,
		Growths:      t.growths,
		PerPartition: make([]int, t.cfg.Partitions),
	}
	if t.slots > 0 {
		s.LoadFactor = float64(t.length) / float64(t.slots)
	}
	nonEmpty, totalLen := 0, 0
	var probeCost float64
	if t.cfg.Layout == Chained {
		for i, bin := range t.bins {
			if len(bin) == 0 {
				continue
			}
			nonEmpty++
			totalLen += len(bin)
			probeCost += float64(len(bin)*(len(bin)+1)) / 2
			if len(bin) > s.MaxBinLen {
				s.MaxBinLen = len(bin)
			}
			s.PerPartition[t.partitionIndexOfSlot(uint64(i))] += len(bin)
		}
	} else {
		run := 0
		flush := func() {
			if run > 0 {
				nonEmpty++
				totalLen += run
				probeCost += float64(run*(run+1)) / 2
				if run > s.MaxBinLen {
					s.MaxBinLen = run
				}
				run = 0
			}
		}
		for p := 0; p < t.cfg.Partitions; p++ {
			lo, hi := t.partitionRange(p)
			for i := lo; i < hi; i++ {
				if t.keys[i] != emptyKey {
					run++
					s.PerPartition[p]++
				} else {
					flush()
				}
			}
			flush() // clusters do not span partitions
		}
	}
	s.NonEmpty = nonEmpty
	if nonEmpty > 0 {
		s.AvgBinLen = float64(totalLen) / float64(nonEmpty)
	}
	if s.Entries > 0 {
		s.MeanProbe = probeCost / float64(s.Entries)
	}
	return s
}

// AggregateStats folds the Stats of several tables (the per-thread shards
// of one logical table) into one summary: entries, slots and growths sum;
// bin metrics combine over the union of bins; PerPartition concatenates in
// shard order.
func AggregateStats(tables ...*Table) Stats {
	var out Stats
	totalLen := 0.0
	probeCost := 0.0
	for _, t := range tables {
		if t == nil {
			continue
		}
		s := t.Stats()
		out.Entries += s.Entries
		out.Slots += s.Slots
		out.Growths += s.Growths
		out.NonEmpty += s.NonEmpty
		out.PerPartition = append(out.PerPartition, s.PerPartition...)
		if s.MaxBinLen > out.MaxBinLen {
			out.MaxBinLen = s.MaxBinLen
		}
		totalLen += s.AvgBinLen * float64(s.NonEmpty)
		probeCost += s.MeanProbe * float64(s.Entries)
	}
	if out.Slots > 0 {
		out.LoadFactor = float64(out.Entries) / float64(out.Slots)
	}
	if out.NonEmpty > 0 {
		out.AvgBinLen = totalLen / float64(out.NonEmpty)
	}
	if out.Entries > 0 {
		out.MeanProbe = probeCost / float64(out.Entries)
	}
	return out
}

func (t *Table) partitionIndexOfSlot(slot uint64) int {
	return int(slot * uint64(t.cfg.Partitions) / t.slots)
}

// String summarizes the table for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("edgetable{%s/%s entries=%d slots=%d parts=%d}",
		t.cfg.Hash, t.cfg.Layout, t.length, t.slots, t.cfg.Partitions)
}
