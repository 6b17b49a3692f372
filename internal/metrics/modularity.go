// Package metrics implements the evaluation metrics of the paper's Table II:
// Newman modularity (Equation 3), the similarity measures of Table III (NMI,
// F-measure, NVD, Rand, Adjusted Rand, Jaccard), community size
// distributions, and the global clustering coefficient used to characterize
// BTER graphs. The evolution ratio is core.(*Result).EvolutionRatios.
package metrics

import (
	"math"
	"slices"

	"parlouvain/internal/graph"
)

// Modularity computes Newman's modularity (Equation 3) of the assignment
// over g: Q = Σ_c [Σin_c/(2m) − (Σtot_c)²/(4m²)], where Σin_c is the
// double-counted internal edge weight of c (self-loops twice) and Σtot_c
// the summed weighted degree. assign must have length g.N; vertices with
// the same assign value form one community.
//
// Both sums live in slices indexed by label (labelIndex), are accumulated
// vertex by vertex and reduced in ascending label order: the same bits on
// every run, with no map operation when every label is below g.N and one per
// vertex otherwise.
func Modularity(g *graph.Graph, assign []graph.V) float64 {
	if g.N == 0 || g.M == 0 {
		return 0
	}
	idx, k := labelIndex(assign[:g.N])
	type sums struct{ in, tot float64 }
	acc := make([]sums, k)
	for u, cu := range idx {
		in := acc[cu].in + 2*g.SelfW[u]
		w := g.NbrW[g.Off[u]:g.Off[u+1]]
		for i, v := range g.Nbr[g.Off[u]:g.Off[u+1]] {
			// Masking a foreign neighbor's weight to +0 (a conditional move)
			// is twice as fast as a branch the predictor cannot learn, and
			// adding +0 changes no bit: a sum from +0 is never -0.
			var keep uint64
			if idx[v] == cu {
				keep = ^uint64(0)
			}
			in += math.Float64frombits(math.Float64bits(w[i]) & keep)
		}
		acc[cu].in = in
		acc[cu].tot += g.Deg[u]
	}
	// An index no vertex carries adds a zero term.
	twoM := 2 * g.M
	q := 0.0
	for _, a := range acc {
		q += a.in/twoM - (a.tot/twoM)*(a.tot/twoM)
	}
	return q
}

// labelIndex maps each vertex's label to an index in [0, k) that ascends
// with the label: the label itself when every label is below len(assign),
// otherwise its rank among the distinct labels.
func labelIndex(assign []graph.V) (idx []graph.V, k int) {
	n := len(assign)
	sparse := false
	for _, c := range assign {
		if int(c) >= n {
			sparse = true
			break
		}
	}
	if !sparse {
		return assign, n
	}
	distinct := slices.Clone(assign)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	rank := make(map[graph.V]graph.V, len(distinct))
	for i, c := range distinct {
		rank[c] = graph.V(i)
	}
	idx = make([]graph.V, n)
	for u, c := range assign {
		idx[u] = rank[c]
	}
	return idx, len(distinct)
}

// DeltaQ computes the modularity gain of Equation 4: moving an isolated
// vertex with weighted degree ku into a community with incident weight
// sumTot, where wUToC is the single-counted weight from the vertex to
// members of that community. m is the graph's total edge weight.
func DeltaQ(wUToC, sumTot, ku, m float64) float64 {
	return wUToC/m - sumTot*ku/(2*m*m)
}

// CommunitySizes returns the size of each non-empty community, descending.
func CommunitySizes(assign []graph.V) []int {
	idx, k := labelIndex(assign)
	counts := make([]int, k)
	for _, c := range idx {
		counts[c]++
	}
	out := counts[:0]
	for _, n := range counts {
		if n > 0 {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	slices.Reverse(out)
	return out
}

// SizeHistogram buckets community sizes into power-of-two bins
// [1,2), [2,4), [4,8)... and returns the counts, for the Figure 5
// distribution plots. The last bin absorbs everything ≥ 2^(len-1).
func SizeHistogram(sizes []int, bins int) []int {
	if bins <= 0 {
		bins = 16
	}
	h := make([]int, bins)
	for _, s := range sizes {
		if s < 1 {
			continue
		}
		b := 0
		for v := s; v > 1 && b < bins-1; v >>= 1 {
			b++
		}
		h[b]++
	}
	return h
}

// GCC estimates the global clustering coefficient (ratio of closed wedges)
// by sampling wedges uniformly at random. samples = 0 uses a default of
// 100k. Exact for graphs where sampling covers all wedges is not needed —
// the metric only labels BTER configurations.
func GCC(g *graph.Graph, samples int, seed uint64) float64 {
	if samples <= 0 {
		samples = 100000
	}
	// Collect centers with degree >= 2, weighted by wedge count.
	type center struct {
		v      graph.V
		wedges int64
	}
	var centers []center
	var total int64
	for v := 0; v < g.N; v++ {
		d := int64(g.Degree(graph.V(v)))
		if d >= 2 {
			w := d * (d - 1) / 2
			centers = append(centers, center{graph.V(v), w})
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	// Cumulative weights for sampling.
	cum := make([]int64, len(centers)+1)
	for i, c := range centers {
		cum[i+1] = cum[i] + c.wedges
	}
	rng := splitmix{seed}
	closed := 0
	for s := 0; s < samples; s++ {
		target := int64(rng.next() % uint64(total))
		// Binary search in cum.
		lo, hi := 0, len(centers)
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= target {
				lo = mid
			} else {
				hi = mid
			}
		}
		v := centers[lo].v
		d := g.Degree(v)
		i := int(rng.next() % uint64(d))
		j := int(rng.next() % uint64(d-1))
		if j >= i {
			j++
		}
		a := g.Nbr[g.Off[v]+int64(i)]
		b := g.Nbr[g.Off[v]+int64(j)]
		if hasEdge(g, a, b) {
			closed++
		}
	}
	return float64(closed) / float64(samples)
}

func hasEdge(g *graph.Graph, a, b graph.V) bool {
	// Scan the shorter adjacency list.
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	for i := g.Off[a]; i < g.Off[a+1]; i++ {
		if g.Nbr[i] == b {
			return true
		}
	}
	return false
}

type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// entropyTerm returns -p*log(p) handling p == 0.
func entropyTerm(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return -p * math.Log(p)
}
