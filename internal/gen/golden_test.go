package gen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/gencli"
	"parlouvain/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/generators.golden")

const goldenPath = "testdata/generators.golden"

// goldenCase is one generator configuration whose output the golden pins.
type goldenCase struct {
	name string
	run  func() (graph.EdgeList, []graph.V, error)
}

// benchSeed is the benchmark's per-input seed: input i of a run with seed s
// (default 11) is generated from s*1_000_003 + i + 1.
func benchSeed(i int) uint64 { return 11*1_000_003 + uint64(i) + 1 }

// benchLFR is the LFR family of the benchmark's graph workloads.
func benchLFR(n int, seed uint64) gen.LFRConfig {
	cfg := gen.LFRConfig{
		N: n, AvgDegree: 16, MaxDegree: 100, Gamma: 2.5, Beta: 1.5, Mu: 0.3,
		MinCommunity: 32, MaxCommunity: 1000, Seed: seed,
	}
	if n < 10000 {
		cfg.MaxDegree, cfg.MinCommunity, cfg.MaxCommunity = 50, 16, n/8
	}
	return cfg
}

func lfrCase(name string, cfg gen.LFRConfig) goldenCase {
	return goldenCase{name, func() (graph.EdgeList, []graph.V, error) { return gen.LFR(cfg) }}
}

func rmatCase(name string, cfg gen.RMATConfig) goldenCase {
	return goldenCase{name, func() (graph.EdgeList, []graph.V, error) {
		el, err := gen.RMAT(cfg)
		return el, nil, err
	}}
}

func specCase(spec string) goldenCase {
	return goldenCase{"spec/" + spec, func() (graph.EdgeList, []graph.V, error) { return gencli.Generate(spec) }}
}

// goldenCases lists the benchmark's inputs at their full sizes and default
// seed, the serve-mix job specs through gencli, a DefaultLFR sweep over n and
// μ, R-MAT at every scale up to 14 with and without noise and scrambling,
// and the BTER, SBM, ER and ring-of-cliques models.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for i := 0; i < 5; i++ {
		cs = append(cs, lfrCase(fmt.Sprintf("bench/par-lfr/%d", i), benchLFR(5000, benchSeed(i))))
		cs = append(cs, rmatCase(fmt.Sprintf("bench/par-rmat-tcp/%d", i), gen.DefaultRMAT(12, benchSeed(i))))
	}
	for i := 0; i < 4; i++ {
		cs = append(cs, lfrCase(fmt.Sprintf("bench/plm-lfr/%d", i), benchLFR(40000, benchSeed(i))))
		cs = append(cs, rmatCase(fmt.Sprintf("bench/seq-rmat/%d", i), gen.DefaultRMAT(14, benchSeed(i))))
	}
	for i := 0; i < 32; i++ {
		cs = append(cs, lfrCase(fmt.Sprintf("bench/serve-upload/%d", i), gen.DefaultLFR(2000, 0.3, benchSeed(i))))
	}
	cs = append(cs, specCase("ring:k=8,s=6"))
	for i := 0; i < 4; i++ {
		s := benchSeed(1_000_000 + i)
		for _, f := range []string{"sbm:n=1000,comms=8,seed=%d", "lfr:n=2000,mu=0.3,seed=%d", "lfr:n=8000,mu=0.3,seed=%d", "rmat:scale=11,seed=%d"} {
			cs = append(cs, specCase(fmt.Sprintf(f, s)))
		}
	}
	for _, n := range []int{10, 20, 50, 100, 200, 500, 1000, 2000, 4000, 8000} {
		for _, mu := range []float64{0.1, 0.3, 0.6} {
			cs = append(cs, lfrCase(fmt.Sprintf("lfr/n=%d,mu=%g", n, mu), gen.DefaultLFR(n, mu, uint64(n)+7)))
		}
	}
	for scale := 1; scale <= 14; scale++ {
		for _, noise := range []float64{0, 0.1} {
			for _, noScramble := range []bool{false, true} {
				cfg := gen.DefaultRMAT(scale, uint64(scale)*31+5)
				cfg.NoisePerLevel, cfg.NoScramble = noise, noScramble
				cs = append(cs, rmatCase(fmt.Sprintf("rmat/scale=%d,noise=%g,noscramble=%v", scale, noise, noScramble), cfg))
			}
		}
	}
	for _, n := range []int{100, 1000, 5000} {
		for _, rho := range []float64{0.15, 0.4, 0.9} {
			cfg := gen.DefaultBTER(n, rho, uint64(n)+3)
			cs = append(cs, goldenCase{fmt.Sprintf("bter/n=%d,rho=%g", n, rho), func() (graph.EdgeList, []graph.V, error) { return gen.BTER(cfg) }})
		}
	}
	for _, c := range []gen.SBMConfig{{N: 300, Communities: 3, PIn: 0.2, POut: 0.01, Seed: 1}, {N: 2000, Communities: 16, PIn: 0.1, POut: 0.002, Seed: 2}} {
		cs = append(cs, goldenCase{fmt.Sprintf("sbm/n=%d,k=%d", c.N, c.Communities), func() (graph.EdgeList, []graph.V, error) { return gen.SBM(c) }})
	}
	for _, c := range []struct {
		n int
		p float64
	}{{2, 1}, {50, 0.3}, {2000, 0.008}, {10000, 0.0016}} {
		cs = append(cs, goldenCase{fmt.Sprintf("er/n=%d,p=%g", c.n, c.p), func() (graph.EdgeList, []graph.V, error) {
			el, err := gen.ER(c.n, c.p, uint64(c.n))
			return el, nil, err
		}})
	}
	for _, spec := range []string{"bter:n=2000,rho=0.4,seed=3", "er:n=3000,p=0.005,seed=4", "rmat:scale=9,edgefactor=8,seed=5"} {
		cs = append(cs, specCase(spec))
	}
	cs = append(cs, goldenCase{"ring/k=20,s=10", func() (graph.EdgeList, []graph.V, error) { return gen.RingOfCliques(20, 10) }})
	return cs
}

// digest is sha256 over every edge as (u, v uint32, w float64 bits) little
// endian, then the truth as uint32s; an error digests its text instead.
func digest(el graph.EdgeList, truth []graph.V, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	var rec [16]byte
	for _, e := range el {
		binary.LittleEndian.PutUint32(rec[0:], e.U)
		binary.LittleEndian.PutUint32(rec[4:], e.V)
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		h.Write(rec[:])
	}
	h.Write([]byte("truth"))
	for _, c := range truth {
		binary.LittleEndian.PutUint32(rec[:4], c)
		h.Write(rec[:4])
	}
	return fmt.Sprintf("m=%d n=%d %x", len(el), len(truth), h.Sum(nil))
}

// TestGeneratorGolden pins every generator's output bytes: a change to a
// generator that alters any edge, its order or the truth fails here. Run
// with -update to rewrite the golden after an intended change.
func TestGeneratorGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases() {
		el, truth, err := c.run()
		fmt.Fprintf(&got, "%s %s\n", c.name, digest(el, truth, err))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, generators gave %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("generator output changed:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
