package gen

import (
	"fmt"
	"sort"

	"parlouvain/internal/graph"
)

// BTERConfig parameterizes the Block Two-Level Erdős–Rényi generator
// (Seshadhri/Kolda/Pinar, the paper's refs [36][37]) in the simplified form
// used here: a power-law degree sequence is grouped into affinity blocks of
// size d+1 (d the block's lowest degree); phase 1 wires each block as an
// ER graph of density RhoWithinBlock, and phase 2 matches the leftover
// (excess) degree globally with a Chung–Lu configuration model.
//
// RhoWithinBlock is the community-structure knob: the paper differentiates
// BTER graphs by global clustering coefficient (GCC 0.15 vs 0.55); block
// density maps monotonically onto GCC and onto Louvain modularity.
type BTERConfig struct {
	N              int
	AvgDegree      float64
	MaxDegree      int
	Gamma          float64
	RhoWithinBlock float64 // block ER density in (0,1]
	Seed           uint64
}

// DefaultBTER mirrors the paper's weak-scaling configuration shape:
// average degree 32, power-law 2.5.
func DefaultBTER(n int, rho float64, seed uint64) BTERConfig {
	return BTERConfig{N: n, AvgDegree: 32, MaxDegree: n / 10, Gamma: 2.5, RhoWithinBlock: rho, Seed: seed}
}

// BTER generates a graph and its affinity-block assignment (the generative
// community structure).
func BTER(cfg BTERConfig) (graph.EdgeList, []graph.V, error) {
	if cfg.N < 10 {
		return nil, nil, fmt.Errorf("gen: BTER needs n >= 10, got %d", cfg.N)
	}
	if cfg.RhoWithinBlock <= 0 || cfg.RhoWithinBlock > 1 {
		return nil, nil, fmt.Errorf("gen: BTER rho %v out of (0,1]", cfg.RhoWithinBlock)
	}
	if cfg.Gamma <= 1 {
		return nil, nil, fmt.Errorf("gen: BTER gamma must be > 1")
	}
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = cfg.N / 10
	}
	if cfg.MaxDegree < 2 {
		cfg.MaxDegree = 2
	}
	rng := NewRNG(cfg.Seed)

	// Degree sequence, ascending, so blocks group similar degrees.
	kmin := solveKMin(cfg.AvgDegree, float64(cfg.MaxDegree), cfg.Gamma)
	degrees := newPareto(kmin, float64(cfg.MaxDegree), cfg.Gamma)
	deg := make([]int, cfg.N)
	for i := range deg {
		k := int(degrees.sample(rng))
		if k < 1 {
			k = 1
		}
		deg[i] = k
	}
	// ids sorted by degree ascending; vertex ids stay 0..N-1, blocks are
	// formed over the sorted order.
	order := make([]uint32, cfg.N)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] < deg[order[b]] })

	truth := make([]graph.V, cfg.N)
	set := newEdgeSet(deg)

	// Phase 1: affinity blocks.
	excess := make([]float64, cfg.N)
	blockID := graph.V(0)
	for start := 0; start < cfg.N; {
		d := deg[order[start]]
		size := d + 1
		if start+size > cfg.N {
			size = cfg.N - start
		}
		block := order[start : start+size]
		for _, v := range block {
			truth[v] = blockID
		}
		// ER within the block at density rho.
		rho := cfg.RhoWithinBlock
		internal := make([]int, size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < rho && set.add(block[i], block[j]) {
					internal[i]++
					internal[j]++
				}
			}
		}
		for i, v := range block {
			e := float64(deg[v] - internal[i])
			if e > 0 {
				excess[v] = e
			}
		}
		start += size
		blockID++
	}

	// Phase 2: Chung–Lu on excess degree.
	var stubs []uint32
	for v := 0; v < cfg.N; v++ {
		for i := 0; i < int(excess[v]); i++ {
			stubs = append(stubs, uint32(v))
		}
	}
	set.match(rng, stubs, nil)
	return set.el, truth, nil
}
