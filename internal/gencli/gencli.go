// Package gencli parses the generator specs shared by cmd/louvain and
// cmd/gengraph: a family name and comma-separated key=value parameters,
// e.g. "lfr:n=10000,mu=0.3,seed=7" or "rmat:scale=16".
package gencli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// Usage documents the accepted spec grammar.
const Usage = `generator specs:
  lfr:n=<int>,mu=<float>[,k=<float>][,gamma=<float>][,beta=<float>][,seed=<int>]
  rmat:scale=<int>[,edgefactor=<int>][,seed=<int>]
  bter:n=<int>[,rho=<float>][,k=<float>][,seed=<int>]
  sbm:n=<int>,comms=<int>[,pin=<float>][,pout=<float>][,seed=<int>]
  er:n=<int>,p=<float>[,seed=<int>]
  ring:k=<int>,s=<int>`

type params map[string]string

func (p params) float(key string, def float64) (float64, error) {
	v, ok := p[key]
	if !ok {
		return def, nil
	}
	return strconv.ParseFloat(v, 64)
}

func (p params) integer(key string, def int) (int, error) {
	v, ok := p[key]
	if !ok {
		return def, nil
	}
	return strconv.Atoi(v)
}

func (p params) seed() (uint64, error) {
	v, ok := p["seed"]
	if !ok {
		return 42, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

// Generate materializes a generator spec, returning the edge list and the
// ground-truth assignment when the model has one (nil otherwise).
func Generate(spec string) (graph.EdgeList, []graph.V, error) {
	g, err := parse(spec)
	if err != nil {
		return nil, nil, err
	}
	return g.run()
}

// Size returns how many records generating spec materializes, without
// generating it: its vertex count plus its expected edge count — n·k/2 for
// lfr and bter, edgefactor·2^scale for rmat, p·n(n−1)/2 for er — or, for
// sbm, which draws every vertex pair, n(n−1)/2. It is computed in floating
// point, so a spec whose count overflows an int reads as huge, not wrapped.
func Size(spec string) (float64, error) {
	g, err := parse(spec)
	return g.size, err
}

// generator is a parsed spec: its Size and the call that generates it.
type generator struct {
	size float64
	run  func() (graph.EdgeList, []graph.V, error)
}

func parse(spec string) (generator, error) {
	family, rest, _ := strings.Cut(spec, ":")
	p := params{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return generator{}, fmt.Errorf("gencli: bad parameter %q in %q", kv, spec)
			}
			p[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	seed, err := p.seed()
	if err != nil {
		return generator{}, err
	}
	switch family {
	case "lfr":
		n, err := p.integer("n", 10000)
		if err != nil {
			return generator{}, err
		}
		mu, err := p.float("mu", 0.3)
		if err != nil {
			return generator{}, err
		}
		cfg := gen.DefaultLFR(n, mu, seed)
		if cfg.AvgDegree, err = p.float("k", cfg.AvgDegree); err != nil {
			return generator{}, err
		}
		if cfg.Gamma, err = p.float("gamma", cfg.Gamma); err != nil {
			return generator{}, err
		}
		if cfg.Beta, err = p.float("beta", cfg.Beta); err != nil {
			return generator{}, err
		}
		return generator{float64(n) * (1 + cfg.AvgDegree/2), func() (graph.EdgeList, []graph.V, error) { return gen.LFR(cfg) }}, nil
	case "rmat":
		scale, err := p.integer("scale", 16)
		if err != nil {
			return generator{}, err
		}
		cfg := gen.DefaultRMAT(scale, seed)
		ef, err := p.integer("edgefactor", cfg.EdgeFactor)
		if err != nil {
			return generator{}, err
		}
		if ef > 0 { // gen.RMAT would fall back to the default too
			cfg.EdgeFactor = ef
		}
		return generator{math.Ldexp(1+float64(cfg.EdgeFactor), scale), func() (graph.EdgeList, []graph.V, error) {
			el, err := gen.RMAT(cfg)
			return el, nil, err
		}}, nil
	case "bter":
		n, err := p.integer("n", 10000)
		if err != nil {
			return generator{}, err
		}
		rho, err := p.float("rho", 0.4)
		if err != nil {
			return generator{}, err
		}
		cfg := gen.DefaultBTER(n, rho, seed)
		if cfg.AvgDegree, err = p.float("k", cfg.AvgDegree); err != nil {
			return generator{}, err
		}
		return generator{float64(n) * (1 + cfg.AvgDegree/2), func() (graph.EdgeList, []graph.V, error) { return gen.BTER(cfg) }}, nil
	case "sbm":
		n, err := p.integer("n", 1000)
		if err != nil {
			return generator{}, err
		}
		comms, err := p.integer("comms", 10)
		if err != nil {
			return generator{}, err
		}
		pin, err := p.float("pin", 0.1)
		if err != nil {
			return generator{}, err
		}
		pout, err := p.float("pout", 0.01)
		if err != nil {
			return generator{}, err
		}
		cfg := gen.SBMConfig{N: n, Communities: comms, PIn: pin, POut: pout, Seed: seed}
		return generator{float64(n) + pairs(n), func() (graph.EdgeList, []graph.V, error) { return gen.SBM(cfg) }}, nil
	case "er":
		n, err := p.integer("n", 1000)
		if err != nil {
			return generator{}, err
		}
		prob, err := p.float("p", 0.01)
		if err != nil {
			return generator{}, err
		}
		return generator{float64(n) + prob*pairs(n), func() (graph.EdgeList, []graph.V, error) {
			el, err := gen.ER(n, prob, seed)
			return el, nil, err
		}}, nil
	case "ring":
		k, err := p.integer("k", 8)
		if err != nil {
			return generator{}, err
		}
		s, err := p.integer("s", 5)
		if err != nil {
			return generator{}, err
		}
		return generator{float64(k) * (1 + float64(s) + pairs(s)), func() (graph.EdgeList, []graph.V, error) { return gen.RingOfCliques(k, s) }}, nil
	default:
		return generator{}, fmt.Errorf("gencli: unknown generator %q\n%s", family, Usage)
	}
}

// pairs is n(n−1)/2, the number of vertex pairs among n.
func pairs(n int) float64 { return float64(n) * float64(n-1) / 2 }
