package parlouvain_test

import (
	"fmt"

	"parlouvain"
)

// ExampleDetect demonstrates sequential detection on the classic
// two-triangles graph.
func ExampleDetect() {
	edges := parlouvain.EdgeList{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		{U: 2, V: 3, W: 1},
	}
	res, err := parlouvain.Detect(edges, parlouvain.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("communities: %d\n", len(parlouvain.CommunitySizes(res.Membership)))
	fmt.Printf("same side: %v\n", res.Membership[0] == res.Membership[2])
	fmt.Printf("split across the bridge: %v\n", res.Membership[2] != res.Membership[3])
	// Output:
	// communities: 2
	// same side: true
	// split across the bridge: true
}

// ExampleDetectParallel runs the paper's parallel algorithm across four
// simulated compute ranks.
func ExampleDetectParallel() {
	edges, _, err := parlouvain.RingOfCliques(8, 5)
	if err != nil {
		panic(err)
	}
	res, err := parlouvain.DetectParallel(edges, 4, parlouvain.Options{CollectLevels: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("communities: %d\n", len(parlouvain.CommunitySizes(res.Membership)))
	// Output:
	// communities: 8
}

// ExampleCompareAssignments scores a detected partition against ground
// truth with the paper's Table III metrics.
func ExampleCompareAssignments() {
	truth := []parlouvain.V{0, 0, 0, 1, 1, 1}
	found := []parlouvain.V{5, 5, 5, 9, 9, 9} // same structure, new labels
	sim, err := parlouvain.CompareAssignments(found, truth)
	if err != nil {
		panic(err)
	}
	fmt.Printf("NMI=%.0f NVD=%.0f\n", sim.NMI, sim.NVD)
	// Output:
	// NMI=1 NVD=0
}

// ExampleDetectIncremental shows dynamic re-detection: a second run warm
// starts from the first run's membership after the graph changed.
func ExampleDetectIncremental() {
	edges, _, err := parlouvain.RingOfCliques(6, 4)
	if err != nil {
		panic(err)
	}
	first, err := parlouvain.DetectParallel(edges, 2, parlouvain.Options{CollectLevels: true})
	if err != nil {
		panic(err)
	}
	// The graph gains one edge; re-detect from the previous communities.
	edges = append(edges, parlouvain.Edge{U: 0, V: 12, W: 0.1})
	second, err := parlouvain.DetectIncremental(edges, 2, first.Membership,
		parlouvain.Options{CollectLevels: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("still %d communities\n", len(parlouvain.CommunitySizes(second.Membership)))
	// Output:
	// still 6 communities
}
