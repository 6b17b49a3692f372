package exp

import (
	"math"

	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// Fig2Config is one LFR configuration of the paper's Figure 2 simulation
// analysis.
type Fig2Config struct {
	Label string
	Mu    float64
	K     float64 // average degree
}

// Fig2Configs mirrors the paper's spread of community-structure strengths
// (modularity roughly 0.2 to 0.8).
func Fig2Configs() []Fig2Config {
	return []Fig2Config{
		{Label: "strong (mu=0.2,k=16)", Mu: 0.2, K: 16},
		{Label: "medium (mu=0.4,k=16)", Mu: 0.4, K: 16},
		{Label: "weak (mu=0.5,k=20)", Mu: 0.5, K: 20},
		{Label: "very weak (mu=0.6,k=24)", Mu: 0.6, K: 24},
	}
}

// FitDecay fits fraction(iter) = p1 * exp(-iter/p2) by least squares on
// log(fraction), ignoring zero entries. Returns (p1, p2).
func FitDecay(iters []int, fractions []float64) (float64, float64) {
	var sx, sy, sxx, sxy, n float64
	for i, f := range fractions {
		if f <= 0 {
			continue
		}
		x := float64(iters[i])
		y := math.Log(f)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return 1, 2
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept := (sy - slope*sx) / n
	p1 := math.Exp(intercept)
	// ε is a fraction of the vertex set; very short traces can
	// extrapolate an intercept above 1, which the schedule clamps anyway.
	if p1 > 1 {
		p1 = 1
	}
	p2 := math.Inf(1)
	if slope < 0 {
		p2 = -1 / slope
	}
	return p1, p2
}

// Fig2 reproduces the paper's Figure 2: trace the per-inner-iteration
// vertex update fraction of the sequential algorithm on LFR graphs of
// varying community strength, then fit the exponential-decay threshold
// ε(iter) = p1·e^(−iter/p2) by regression. repeats experiments per config
// (the paper used 100).
func Fig2(sizeFactor float64, repeats int) ([]Table, error) {
	if repeats <= 0 {
		repeats = 5
	}
	n := int(8000 * sizeFactor)
	if n < 500 {
		n = 500
	}
	out := make([]Table, 0, len(Fig2Configs())+1)
	summary := Table{
		Title:  "Figure 2 (regression summary): eps(iter) = p1*exp(-iter/p2)",
		Header: []string{"Config", "p1", "p2", "iters to eps<1/n"},
	}
	for _, cfg := range Fig2Configs() {
		const maxIter = 24
		sum := make([]float64, maxIter+1)
		cnt := make([]int, maxIter+1)
		for rep := 0; rep < repeats; rep++ {
			lcfg := gen.DefaultLFR(n, cfg.Mu, uint64(1000+rep))
			lcfg.AvgDegree = cfg.K
			el, _, err := gen.LFR(lcfg)
			if err != nil {
				return nil, err
			}
			res, err := core.Sequential(graph.Build(el, n), core.Options{MaxLevels: 1})
			if err != nil {
				return nil, err
			}
			// Level 0 sweeps all n vertices in every iteration.
			moves := res.Levels[0].MovesPerIter
			for i := 0; i < len(moves) && i < maxIter; i++ {
				sum[i+1] += float64(moves[i]) / float64(n)
				cnt[i+1]++
			}
		}
		var iters []int
		var fracs []float64
		t := Table{
			Title:  "Figure 2: vertex update fraction per inner iteration, " + cfg.Label,
			Header: []string{"iter", "observed fraction", "fitted eps"},
		}
		for it := 1; it <= maxIter; it++ {
			if cnt[it] == 0 {
				break
			}
			f := sum[it] / float64(cnt[it])
			iters = append(iters, it)
			fracs = append(fracs, f)
		}
		p1, p2 := FitDecay(iters, fracs)
		for i, it := range iters {
			t.AddRow(d(it), f4(fracs[i]), f4(p1*math.Exp(-float64(it)/p2)))
		}
		out = append(out, t)
		// Iterations until the fitted fraction drops below one vertex.
		itersToConverge := int(math.Ceil(p2 * math.Log(p1*float64(n))))
		summary.AddRow(cfg.Label, f3(p1), f3(p2), d(itersToConverge))
	}
	out = append(out, summary)
	return out, nil
}
