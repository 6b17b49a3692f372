package gen

import (
	"fmt"
	"math"
	"sort"

	"parlouvain/internal/graph"
)

// LFRConfig parameterizes the LFR benchmark generator (Lancichinetti &
// Fortunato, the paper's ref [26]): power-law degrees with exponent Gamma,
// power-law community sizes with exponent Beta, and mixing parameter Mu —
// the fraction of each vertex's edges that leave its community. Lower Mu
// means stronger community structure.
//
// This is a reimplementation of the published generator's statistical
// targets (see DESIGN.md §2): exact reproduction of the reference C++ code
// is not required by any experiment, only control over (k̄, γ, β, μ).
type LFRConfig struct {
	N            int
	AvgDegree    float64
	MaxDegree    int
	Gamma        float64 // degree exponent, typically 2–3
	Beta         float64 // community size exponent, typically 1–2
	Mu           float64 // mixing parameter in [0,1)
	MinCommunity int     // smallest community size; 0 derives it from MaxDegree
	MaxCommunity int     // largest community size; 0 derives it from N
	Seed         uint64
}

// DefaultLFR returns the parameter set used throughout the paper's Figure 2
// analysis: k̄=16, γ=2.5, β=1.5.
func DefaultLFR(n int, mu float64, seed uint64) LFRConfig {
	return LFRConfig{
		N:         n,
		AvgDegree: 16,
		MaxDegree: n / 10,
		Gamma:     2.5,
		Beta:      1.5,
		Mu:        mu,
		Seed:      seed,
	}
}

// LFR generates a benchmark graph and its planted community assignment.
func LFR(cfg LFRConfig) (graph.EdgeList, []graph.V, error) {
	if cfg.N < 10 {
		return nil, nil, fmt.Errorf("gen: LFR needs n >= 10, got %d", cfg.N)
	}
	if cfg.Mu < 0 || cfg.Mu >= 1 {
		return nil, nil, fmt.Errorf("gen: LFR mu %v out of [0,1)", cfg.Mu)
	}
	if cfg.Gamma <= 1 || cfg.Beta <= 1 {
		return nil, nil, fmt.Errorf("gen: LFR exponents must be > 1 (gamma=%v beta=%v)", cfg.Gamma, cfg.Beta)
	}
	if cfg.AvgDegree < 1 {
		return nil, nil, fmt.Errorf("gen: LFR average degree %v < 1", cfg.AvgDegree)
	}
	if cfg.MaxDegree <= 0 {
		cfg.MaxDegree = cfg.N / 10
	}
	if cfg.MaxDegree < 2 {
		cfg.MaxDegree = 2
	}
	if cfg.MaxDegree >= cfg.N {
		cfg.MaxDegree = cfg.N - 1
	}
	rng := NewRNG(cfg.Seed)

	// 1. Degree sequence: solve for kmin so the bounded Pareto mean hits
	// AvgDegree, then sample.
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

	// 2. Community sizes: power law between bounds wide enough to host
	// every vertex's internal degree.
	maxInt := 0
	for _, k := range deg {
		if in := internalDeg(k, cfg.Mu); in > maxInt {
			maxInt = in
		}
	}
	minC := cfg.MinCommunity
	if minC <= 0 {
		minC = maxInt + 1
		if minC < 8 {
			minC = 8
		}
	}
	maxC := cfg.MaxCommunity
	if maxC <= 0 {
		maxC = cfg.N / 4
	}
	if maxC < minC {
		maxC = minC
	}
	if minC > cfg.N {
		return nil, nil, fmt.Errorf("gen: LFR cannot host internal degree %d in %d vertices; lower AvgDegree/MaxDegree or raise Mu", maxInt, cfg.N)
	}
	var sizes []int
	remaining := cfg.N
	for remaining > 0 {
		s := rng.Powerlaw(minC, maxC, cfg.Beta)
		if s > remaining {
			// Close out: merge the tail into the last community (or a
			// final community of the remaining size if none yet).
			if len(sizes) > 0 && remaining < minC {
				sizes[len(sizes)-1] += remaining
			} else {
				sizes = append(sizes, remaining)
			}
			remaining = 0
			break
		}
		sizes = append(sizes, s)
		remaining -= s
	}

	// 3. Assign vertices to communities. Process vertices in decreasing
	// internal degree so the hardest-to-place go first; pick a random
	// community with enough capacity.
	truth := make([]graph.V, cfg.N)
	free := append([]int(nil), sizes...)
	order := make([]uint32, cfg.N)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	for _, vi := range order {
		v := int(vi)
		in := internalDeg(deg[v], cfg.Mu)
		placed := false
		for attempt := 0; attempt < 64; attempt++ {
			c := rng.Intn(len(sizes))
			if free[c] > 0 && sizes[c] > in {
				truth[v] = graph.V(c)
				free[c]--
				placed = true
				break
			}
		}
		if !placed {
			// Deterministic fallback: the community with the most free
			// slots; cap the internal degree to what it can host.
			best := 0
			for c := range free {
				if free[c] > free[best] {
					best = c
				}
			}
			if free[best] == 0 {
				return nil, nil, fmt.Errorf("gen: LFR ran out of community capacity")
			}
			truth[v] = graph.V(best)
			free[best]--
		}
	}

	// 4. Internal edges: per-community configuration model.
	members := make([][]uint32, len(sizes))
	for v, c := range truth {
		members[c] = append(members[c], uint32(v))
	}
	set := newEdgeSet(deg)
	var stubs []uint32
	for _, mem := range members {
		stubs = stubs[:0]
		for _, v := range mem {
			in := internalDeg(deg[v], cfg.Mu)
			if in > len(mem)-1 {
				in = len(mem) - 1
			}
			for i := 0; i < in; i++ {
				stubs = append(stubs, v)
			}
		}
		set.match(rng, stubs, nil)
	}

	// 5. External edges: global configuration model, rejecting
	// same-community pairs.
	stubs = stubs[:0]
	for v := 0; v < cfg.N; v++ {
		ext := deg[v] - internalDeg(deg[v], cfg.Mu)
		for i := 0; i < ext; i++ {
			stubs = append(stubs, uint32(v))
		}
	}
	set.match(rng, stubs, truth)

	// Ensure no isolated vertices (Louvain handles them, but quality
	// metrics against ground truth behave better without): connect any
	// isolated vertex to a random member of its community. Isolation is
	// judged before the first repair, so a vertex that a repair reached
	// still gets its own.
	var isolated []uint32
	for v, nbr := range set.nbr {
		if len(nbr) == 0 {
			isolated = append(isolated, uint32(v))
		}
	}
	for _, v := range isolated {
		mem := members[truth[v]]
		for attempt := 0; attempt < 16; attempt++ {
			o := mem[rng.Intn(len(mem))]
			if set.add(v, o) {
				break
			}
		}
	}
	return set.el, truth, nil
}

// internalDeg returns the number of intra-community stubs for degree k at
// mixing mu.
func internalDeg(k int, mu float64) int {
	return int(math.Round((1 - mu) * float64(k)))
}

// solveKMin finds the continuous lower cutoff of a bounded Pareto with
// exponent gamma and upper bound kmax whose mean equals avg, by bisection.
func solveKMin(avg, kmax, gamma float64) float64 {
	mean := func(kmin float64) float64 {
		// E[X] for bounded Pareto on [kmin, kmax], density ∝ x^-gamma.
		g1 := 1 - gamma
		g2 := 2 - gamma
		if math.Abs(g1) < 1e-12 || math.Abs(g2) < 1e-12 {
			// Degenerate exponents; nudge.
			gamma += 1e-9
			g1, g2 = 1-gamma, 2-gamma
		}
		num := (math.Pow(kmax, g2) - math.Pow(kmin, g2)) / g2
		den := (math.Pow(kmax, g1) - math.Pow(kmin, g1)) / g1
		return num / den
	}
	lo, hi := 1.0, kmax
	if mean(lo) >= avg {
		return lo
	}
	if mean(hi) <= avg {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if mean(mid) < avg {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
