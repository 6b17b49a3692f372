// Package gen provides the deterministic synthetic graph generators used by
// the paper's evaluation: R-MAT (Graph500), BTER, LFR, plus the simpler
// Erdős–Rényi, planted-partition (SBM) and ring-of-cliques models used in
// tests and examples. Every generator takes an explicit seed and is fully
// reproducible; none touches math/rand global state.
package gen

import "math"

// RNG is a splitmix64 generator: tiny state, excellent mixing, and cheap
// enough to re-seed per vertex for parallel generation.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Distinct seeds yield independent streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Shuffle permutes xs uniformly (Fisher–Yates).
func (r *RNG) Shuffle(xs []uint32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// pareto is a bounded Pareto distribution on [min,max] with density
// ∝ x^-gamma, the powers of its bounds computed once for a whole sequence of
// draws.
type pareto struct{ a, b, inv float64 }

// newPareto needs gamma > 1; a min ≤ 0 reads as 1, a max below min as min.
func newPareto(min, max, gamma float64) pareto {
	if min <= 0 {
		min = 1
	}
	if max < min {
		max = min
	}
	oneMinusG := 1 - gamma
	return pareto{a: math.Pow(min, oneMinusG), b: math.Pow(max, oneMinusG), inv: 1 / oneMinusG}
}

// sample draws a real value from p by inverse transform.
func (p pareto) sample(r *RNG) float64 {
	u := r.Float64()
	return math.Pow(p.a+u*(p.b-p.a), p.inv)
}

// Powerlaw samples an integer in [min,max] from a discrete power law with
// exponent gamma (P(k) ∝ k^-gamma) via inverse transform sampling of the
// continuous distribution, rounded down. gamma must be > 1.
func (r *RNG) Powerlaw(min, max int, gamma float64) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if min == max {
		return min
	}
	// Inverse CDF of the bounded continuous Pareto: x = [a^(1-g) +
	// u*(b^(1-g) - a^(1-g))]^(1/(1-g)) with b = max+1 so the top bucket
	// has mass.
	oneMinusG := 1 - gamma
	a := math.Pow(float64(min), oneMinusG)
	b := math.Pow(float64(max+1), oneMinusG)
	u := r.Float64()
	x := math.Pow(a+u*(b-a), 1/oneMinusG)
	k := int(x)
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}
