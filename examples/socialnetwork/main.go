// Social-network analysis: generate an LFR benchmark graph that mimics a
// mid-sized social network with known community structure, detect
// communities sequentially and in parallel, and score both against the
// planted ground truth with the paper's Table III metrics.
//
// Run with: go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"time"

	"parlouvain"
)

func main() {
	const n = 20000
	const mixing = 0.35 // 35% of each member's ties leave their circle

	fmt.Printf("generating LFR social network: %d members, mixing %.2f...\n", n, mixing)
	edges, truth, err := parlouvain.LFR(parlouvain.DefaultLFR(n, mixing, 2024))
	if err != nil {
		log.Fatal(err)
	}
	g := parlouvain.BuildGraph(edges, n)
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.N, g.NumEdges())

	// Sequential baseline (Algorithm 1 of the paper).
	t0 := time.Now()
	seq, err := parlouvain.DetectGraph(g, parlouvain.Options{})
	if err != nil {
		log.Fatal(err)
	}
	seqTime := time.Since(t0)

	// Parallel detection across 8 simulated ranks (Algorithm 2).
	par, err := parlouvain.DetectParallel(edges, 8, parlouvain.Options{
		Threads:       2,
		CollectLevels: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, membership []parlouvain.V, q float64, d time.Duration) {
		sim, err := parlouvain.CompareAssignments(membership, truth)
		if err != nil {
			log.Fatal(err)
		}
		sizes := parlouvain.CommunitySizes(membership)
		fmt.Printf("%-12s Q=%.4f  communities=%d  largest=%d  time=%v\n",
			name, q, len(sizes), sizes[0], d.Round(time.Millisecond))
		fmt.Printf("%-12s vs truth: NMI=%.3f F=%.3f NVD=%.3f ARI=%.3f\n\n",
			"", sim.NMI, sim.FMeasure, sim.NVD, sim.ARI)
	}
	report("sequential", seq.Membership, seq.Q, seqTime)
	report("parallel", par.Membership, par.Q, par.Duration)

	sim, err := parlouvain.CompareAssignments(par.Membership, seq.Membership)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel vs sequential: NMI=%.3f NVD=%.3f (paper's Table III shape: NMI near 1, NVD near 0)\n",
		sim.NMI, sim.NVD)
}
