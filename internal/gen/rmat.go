package gen

import (
	"fmt"
	"math"

	"parlouvain/internal/graph"
)

// RMATConfig parameterizes the recursive matrix generator of Chakrabarti et
// al., as adopted by the Graph500 specification the paper's Table I cites:
// 2^Scale vertices and EdgeFactor*2^Scale edges with partition probabilities
// (A,B,C,D). The Graph500 defaults are A=0.57, B=0.19, C=0.19, D=0.05 and
// EdgeFactor=16 (the paper's "2^(SCALE+4)" edges).
type RMATConfig struct {
	Scale      int
	EdgeFactor int
	A, B, C, D float64
	Seed       uint64
	// NoisePerLevel perturbs the quadrant probabilities at each recursion
	// level, the standard Graph500 "smoothing" that avoids exact
	// self-similarity. 0 disables, 0.1 is typical.
	NoisePerLevel float64
	// NoScramble disables the Graph500 vertex-id permutation. Raw R-MAT
	// ids encode the recursion (low-zero-bit ids are hubs), which makes
	// any arithmetic partitioning pathologically imbalanced; scrambling
	// restores the uniform per-node load the paper's 1D decomposition
	// assumes (Section V-C1).
	NoScramble bool
}

// DefaultRMAT returns the Graph500 parameter set for a given scale.
func DefaultRMAT(scale int, seed uint64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed, NoisePerLevel: 0.1}
}

// RMAT generates an R-MAT edge list. Duplicate edges and self-loops are
// kept (as Graph500 generators do); graph.Build merges duplicates by
// weight. R-MAT graphs have a power-law degree distribution but no marked
// community structure (Section V-A).
func RMAT(cfg RMATConfig) (graph.EdgeList, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of supported range [1,30]", cfg.Scale)
	}
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = 16
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum <= 0 {
		return nil, fmt.Errorf("gen: RMAT probabilities sum to %v", sum)
	}
	a, b, c := cfg.A/sum, cfg.B/sum, cfg.C/sum
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	rng := NewRNG(cfg.Seed)
	el := make(graph.EdgeList, 0, m)
	for i := 0; i < m; i++ {
		var u, v uint64
		la, lb, lc := a, b, c
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			// The quadrant q counts the cut points r is past: 0 top-left,
			// 1 top-right (v's bit), 2 bottom-left (u's), 3 bottom-right.
			// Summing the comparisons keeps the random draw off a branch.
			r := rng.Float64()
			q := b2u(r >= la) + b2u(r >= la+lb) + b2u(r >= la+lb+lc)
			u |= (q >> 1) << bit
			v |= (q & 1) << bit
			if cfg.NoisePerLevel > 0 {
				// Multiplicative noise, re-normalized.
				na := la * (1 - cfg.NoisePerLevel + 2*cfg.NoisePerLevel*rng.Float64())
				nb := lb * (1 - cfg.NoisePerLevel + 2*cfg.NoisePerLevel*rng.Float64())
				nc := lc * (1 - cfg.NoisePerLevel + 2*cfg.NoisePerLevel*rng.Float64())
				nd := (1 - la - lb - lc) * (1 - cfg.NoisePerLevel + 2*cfg.NoisePerLevel*rng.Float64())
				tot := na + nb + nc + nd
				la, lb, lc = na/tot, nb/tot, nc/tot
			}
		}
		if !cfg.NoScramble {
			u = permuteBits(u, cfg.Scale, cfg.Seed)
			v = permuteBits(v, cfg.Scale, cfg.Seed)
		}
		el = append(el, graph.Edge{U: graph.V(u), V: graph.V(v), W: 1})
	}
	return el, nil
}

// b2u is 1 for true and 0 for false; the compiler emits a flag set, not a
// branch.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// permuteBits applies a seed-keyed bijection on [0, 2^bits): a 4-round
// (possibly unbalanced) Feistel network with a splitmix round function.
// Used to scramble R-MAT vertex ids as Graph500 generators do. Each round
// maps (l, r) -> (r, l ^ (F(r) & widthMask(l))), which is invertible, so
// the whole network is a permutation; half widths alternate between rounds
// and return to the original split after an even round count.
func permuteBits(x uint64, bits int, seed uint64) uint64 {
	if bits < 2 {
		return x
	}
	wl := bits / 2
	wr := bits - wl
	l := x >> wr
	r := x & (uint64(1)<<wr - 1)
	for round := 0; round < 4; round++ {
		f := mix64(r+seed+uint64(round)*0x9E3779B97F4A7C15) & (uint64(1)<<wl - 1)
		l, r = r, l^f
		wl, wr = wr, wl
	}
	return l<<wr | r
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ER generates an Erdős–Rényi G(n, p) graph via geometric edge skipping,
// O(n²p) expected time.
func ER(n int, p float64, seed uint64) (graph.EdgeList, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: ER with negative n")
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: ER probability %v out of [0,1]", p)
	}
	var el graph.EdgeList
	if p == 0 || n < 2 {
		return el, nil
	}
	rng := NewRNG(seed)
	// Iterate over the upper triangle with geometric skips.
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	tri := triCursor{rowLen: int64(n - 1)}
	for {
		// Skip ~Geom(p).
		u := rng.Float64()
		if u >= 1 {
			u = 0.9999999999999999
		}
		var skip int64
		if p >= 1 {
			skip = 1
		} else {
			skip = 1 + int64(logOneMinus(u)/logOneMinus(p))
		}
		idx += skip
		if idx >= total {
			break
		}
		a, b := tri.at(idx)
		el = append(el, graph.Edge{U: graph.V(a), V: graph.V(b), W: 1})
	}
	return el, nil
}

// logOneMinus returns log(1-x) computed stably.
func logOneMinus(x float64) float64 {
	return math.Log1p(-x)
}

// triCursor maps a linear index over the strict upper triangle of an n×n
// matrix (row-major) to the (row, col) pair. It remembers the row the last
// index fell in, so a run of nondecreasing indices costs O(n + count) in
// all rather than O(n) each. Start it at rowLen n-1.
type triCursor struct {
	row      int
	rowStart int64 // linear index of (row, row+1)
	rowLen   int64 // entries in row: n-1-row
}

// at returns the pair at idx, which must not be below the previous idx.
func (t *triCursor) at(idx int64) (int, int) {
	for idx-t.rowStart >= t.rowLen {
		t.rowStart += t.rowLen
		t.row++
		t.rowLen--
	}
	return t.row, t.row + 1 + int(idx-t.rowStart)
}
