package edgetable

import (
	"fmt"
	"testing"
	"testing/quick"

	"parlouvain/internal/hashfn"
)

func allConfigs() []Config {
	var out []Config
	for _, h := range hashfn.Kinds() {
		for _, l := range []Layout{Probing, Chained} {
			for _, p := range []int{1, 4} {
				out = append(out, Config{Hash: h, Layout: l, Partitions: p})
			}
		}
	}
	return out
}

func cfgName(c Config) string {
	return fmt.Sprintf("%s_%s_p%d", c.Hash, c.Layout, c.Partitions)
}

func TestAddGetAccumulate(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			tab := New(cfg)
			tab.Add(10, 1.5)
			tab.Add(10, 2.5)
			tab.Add(11, 1)
			if w, ok := tab.Get(10); !ok || w != 4 {
				t.Errorf("Get(10) = %v,%v want 4,true", w, ok)
			}
			if w, ok := tab.Get(11); !ok || w != 1 {
				t.Errorf("Get(11) = %v,%v want 1,true", w, ok)
			}
			if _, ok := tab.Get(12); ok {
				t.Error("Get(12) found phantom key")
			}
			if tab.Len() != 2 {
				t.Errorf("Len = %d, want 2", tab.Len())
			}
		})
	}
}

func TestAddPairGetPair(t *testing.T) {
	tab := New(Config{})
	tab.AddPair(3, 5, 2)
	tab.AddPair(5, 3, 7) // different key: order matters in packed tuples
	if w, ok := tab.GetPair(3, 5); !ok || w != 2 {
		t.Errorf("GetPair(3,5) = %v,%v", w, ok)
	}
	if w, ok := tab.GetPair(5, 3); !ok || w != 7 {
		t.Errorf("GetPair(5,3) = %v,%v", w, ok)
	}
}

func TestGrowthPreservesContents(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg.Capacity = 4 // force many growths
		t.Run(cfgName(cfg), func(t *testing.T) {
			tab := New(cfg)
			const n = 5000
			for i := uint64(0); i < n; i++ {
				tab.Add(i*2654435761+1, float64(i))
			}
			if tab.Len() != n {
				t.Fatalf("Len = %d, want %d", tab.Len(), n)
			}
			if tab.Growths() == 0 {
				t.Error("expected at least one growth")
			}
			for i := uint64(0); i < n; i++ {
				if w, ok := tab.Get(i*2654435761 + 1); !ok || w != float64(i) {
					t.Fatalf("key %d lost after growth: %v,%v", i, w, ok)
				}
			}
		})
	}
}

// TestReserveAvoidsGrowthAndKeepsOrder: a table reserved for its contents
// never grows, holds what a grown table holds, and — on the probing layout,
// whose Range walks the insertion journal — ranges in the same order, which
// is what lets the engine pre-size its In_Table without moving a bit
// downstream.
func TestReserveAvoidsGrowthAndKeepsOrder(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg.Capacity = 4
		t.Run(cfgName(cfg), func(t *testing.T) {
			const n = 5000
			grown, reserved := New(cfg), New(cfg)
			reserved.Reserve(n)
			if reserved.Growths() != 0 {
				t.Fatalf("Reserve counted %d growths", reserved.Growths())
			}
			for i := uint64(0); i < n; i++ {
				key := (i%4000)*2654435761 + 1 // the last 1000 accumulate
				grown.Add(key, float64(i))
				reserved.Add(key, float64(i))
			}
			if grown.Growths() == 0 {
				t.Fatal("the unreserved table never grew; the comparison is vacuous")
			}
			// A skewed hash can still fill one partition of a partitioned
			// probing table early; the engine's shards have one partition.
			if cfg.Partitions == 1 && reserved.Growths() != 0 {
				t.Errorf("reserved table grew %d times", reserved.Growths())
			}
			type kv struct {
				k uint64
				w float64
			}
			collect := func(tab *Table) []kv {
				var out []kv
				tab.Range(func(k uint64, w float64) bool {
					out = append(out, kv{k, w})
					return true
				})
				return out
			}
			g, r := collect(grown), collect(reserved)
			if len(g) != 4000 || len(r) != len(g) {
				t.Fatalf("grown holds %d entries, reserved %d, want 4000", len(g), len(r))
			}
			if cfg.Layout == Probing {
				for i := range g {
					if g[i] != r[i] {
						t.Fatalf("Range entry %d: grown %v, reserved %v", i, g[i], r[i])
					}
				}
				return
			}
			for _, e := range g {
				if w, ok := reserved.Get(e.k); !ok || w != e.w {
					t.Fatalf("key %d: grown holds %v, reserved (%v, %v)", e.k, e.w, w, ok)
				}
			}
		})
	}
}

func TestAccumulateEqualsSum(t *testing.T) {
	// Property: for any sequence of (key, weight) adds, Get(k) equals the
	// sum of weights added under k, and Len equals the distinct key count.
	f := func(ops []struct {
		K uint16
		W uint8
	}) bool {
		for _, cfg := range []Config{{Layout: Probing}, {Layout: Chained, Partitions: 3}} {
			tab := New(cfg)
			want := map[uint64]float64{}
			for _, op := range ops {
				k := uint64(op.K)
				w := float64(op.W) + 0.25
				tab.Add(k, w)
				want[k] += w
			}
			if tab.Len() != len(want) {
				return false
			}
			for k, w := range want {
				got, ok := tab.Get(k)
				if !ok || got != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeVisitsAllOnce(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			tab := New(cfg)
			const n = 1000
			for i := uint64(0); i < n; i++ {
				tab.Add(i, 1)
			}
			seen := map[uint64]int{}
			tab.Range(func(k uint64, w float64) bool {
				seen[k]++
				return true
			})
			if len(seen) != n {
				t.Fatalf("Range visited %d keys, want %d", len(seen), n)
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("key %d visited %d times", k, c)
				}
			}
		})
	}
}

func TestRangePartitionDisjointAndComplete(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			tab := New(cfg)
			const n = 2000
			for i := uint64(0); i < n; i++ {
				tab.Add(i*7919, 1)
			}
			seen := map[uint64]int{}
			for p := 0; p < tab.Partitions(); p++ {
				tab.RangePartition(p, func(k uint64, w float64) bool {
					seen[k]++
					return true
				})
			}
			if len(seen) != n {
				t.Fatalf("partitions covered %d keys, want %d", len(seen), n)
			}
			for k, c := range seen {
				if c != 1 {
					t.Fatalf("key %d appeared in %d partitions", k, c)
				}
			}
		})
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tab := New(Config{})
	for i := uint64(0); i < 100; i++ {
		tab.Add(i, 1)
	}
	count := 0
	tab.Range(func(uint64, float64) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}

func TestStatsBasics(t *testing.T) {
	for _, cfg := range allConfigs() {
		tab := New(Config{Hash: cfg.Hash, Layout: cfg.Layout, Partitions: cfg.Partitions, Capacity: 10000})
		const n = 5000
		for i := uint64(0); i < n; i++ {
			tab.Add(i*2654435761, 1)
		}
		s := tab.Stats()
		if s.Entries != n {
			t.Fatalf("%s: Entries = %d", cfgName(cfg), s.Entries)
		}
		sum := 0
		for _, c := range s.PerPartition {
			sum += c
		}
		if sum != n {
			t.Errorf("%s: PerPartition sums to %d, want %d", cfgName(cfg), sum, n)
		}
		if s.MaxBinLen < 1 || s.AvgBinLen < 1 {
			t.Errorf("%s: bin stats %v/%v", cfgName(cfg), s.AvgBinLen, s.MaxBinLen)
		}
		if float64(s.MaxBinLen) < s.AvgBinLen {
			t.Errorf("%s: MaxBinLen %d < AvgBinLen %v", cfgName(cfg), s.MaxBinLen, s.AvgBinLen)
		}
	}
}

func TestFibonacciBeatsConcatenatedOnStructuredKeys(t *testing.T) {
	// The Figure 6 claim: on structured edge keys, Fibonacci hashing
	// yields shorter bins than a naive mapping.
	mk := func(h hashfn.Kind) Stats {
		tab := New(Config{Hash: h, Layout: Chained, LoadFactor: 0.25, Capacity: 1 << 14})
		for u := uint64(0); u < 1<<7; u++ {
			for v := uint64(0); v < 1<<7; v++ {
				tab.Add(u<<32|v<<16, 1) // structured: low bits constant
			}
		}
		return tab.Stats()
	}
	fib, cat := mk(hashfn.Fibonacci), mk(hashfn.Concatenated)
	if fib.MaxBinLen >= cat.MaxBinLen {
		t.Errorf("fibonacci max bin %d should beat concatenated %d", fib.MaxBinLen, cat.MaxBinLen)
	}
}

func TestLoadFactorSweepMonotone(t *testing.T) {
	// Figure 6(d): lower load factor implies lower average bin length.
	avg := func(lf float64) float64 {
		tab := New(Config{Layout: Chained, LoadFactor: lf, Capacity: 1 << 13})
		for i := uint64(0); i < 1<<13; i++ {
			x := i + 0x9E3779B97F4A7C15
			x ^= x >> 30
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 27
			tab.Add(x, 1)
		}
		return tab.Stats().AvgBinLen
	}
	a1, a4, a8 := avg(1), avg(0.25), avg(0.125)
	if !(a8 <= a4 && a4 <= a1) {
		t.Errorf("avg bin length not monotone in load factor: 1->%v 1/4->%v 1/8->%v", a1, a4, a8)
	}
	if a8 > 1.2 {
		t.Errorf("at load 1/8 avg bin length should be near 1, got %v", a8)
	}
}

func TestReservedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(^0) did not panic")
		}
	}()
	New(Config{}).Add(^uint64(0), 1)
}

func TestStringHasShape(t *testing.T) {
	tab := New(Config{})
	if s := tab.String(); s == "" {
		t.Error("empty String()")
	}
}

func BenchmarkAdd(b *testing.B) {
	for _, cfg := range []Config{{Layout: Probing}, {Layout: Chained}} {
		b.Run(cfg.Layout.String(), func(b *testing.B) {
			tab := New(Config{Layout: cfg.Layout, Capacity: b.N})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Add(uint64(i)*2654435761, 1)
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	for _, cfg := range []Config{{Layout: Probing}, {Layout: Chained}} {
		b.Run(cfg.Layout.String(), func(b *testing.B) {
			tab := New(Config{Layout: cfg.Layout, Capacity: 1 << 16})
			for i := uint64(0); i < 1<<16; i++ {
				tab.Add(i*2654435761, 1)
			}
			b.ResetTimer()
			var acc float64
			for i := 0; i < b.N; i++ {
				w, _ := tab.Get(uint64(i%(1<<16)) * 2654435761)
				acc += w
			}
			benchSink = acc
		})
	}
}

var benchSink float64

func TestAddReportsNewKeys(t *testing.T) {
	tab := New(Config{})
	if !tab.Add(1, 1) {
		t.Error("first Add should report new")
	}
	if tab.Add(1, 1) {
		t.Error("second Add should report existing")
	}
}
