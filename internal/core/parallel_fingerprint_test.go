package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// parallelGolden is the move fingerprint of one par-louvain run: the work it
// did (rows scored, rounds, bytes) and where it went (the inner iterations
// and modularity of every level). Two engines that make the same moves on the
// same input, at the same group shape, agree on all of it; floats are stored
// as their IEEE-754 bit patterns so the comparison is exact.
type parallelGolden struct {
	Name       string                `json:"name"`
	Rows       uint64                `json:"rows_evaluated"`
	CommRounds uint64                `json:"comm_rounds"`
	CommBytes  uint64                `json:"comm_bytes"`
	Levels     []parallelLevelGolden `json:"levels"`
	QBits      string                `json:"q_bits"`
}

type parallelLevelGolden struct {
	InnerIterations int    `json:"inner_iterations"`
	QBits           string `json:"q_bits"`
}

// fingerprintInput is one graph of the fixture.
type fingerprintInput struct {
	name string
	el   graph.EdgeList
	n    int
}

// fingerprintInputs are the TestParallelExactCounts input and the repo
// benchmark's ten par-* inputs of seed 11: its LFR family at n=5000 and its
// R-MAT family at scale 12, instance i generated from seed 11·1 000 003 + i + 1.
// The configs are copied as literals; -short keeps the first input only.
func fingerprintInputs(t *testing.T) []fingerprintInput {
	t.Helper()
	ins := []fingerprintInput{{"lfr1000-mu0.3-seed19", skipLFR(t, 1000, 0.3, 19), 1000}}
	if testing.Short() {
		return ins
	}
	for i := 0; i < 5; i++ {
		seed := uint64(11)*1_000_003 + uint64(i) + 1
		el, _, err := gen.LFR(gen.LFRConfig{
			N: 5000, AvgDegree: 16, MaxDegree: 50, Gamma: 2.5, Beta: 1.5, Mu: 0.3,
			MinCommunity: 16, MaxCommunity: 625, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, fingerprintInput{fmt.Sprintf("par-lfr-%d", seed), el, 5000})
	}
	for i := 0; i < 5; i++ {
		seed := uint64(11)*1_000_003 + uint64(i) + 1
		el, err := gen.RMAT(gen.DefaultRMAT(12, seed))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, fingerprintInput{fmt.Sprintf("par-rmat-%d", seed), el, 1 << 12})
	}
	return ins
}

// TestParallelFingerprint pins par-louvain's moves on eleven inputs at
// (ranks, threads) = (1,1), (2,1), (3,2), the way TestHierarchyGolden pins the
// whole-graph engines. A change that claims the same moves must leave
// testdata/parallel_fingerprint.json byte-identical; one that changes them on
// purpose regenerates it once (`go test ./internal/core -run
// ParallelFingerprint -update`) and the diff shows what moved.
func TestParallelFingerprint(t *testing.T) {
	// The invariant checker adds collectives of its own.
	forceInvariantChecks = false
	defer func() { forceInvariantChecks = true }()
	var got []parallelGolden
	for _, in := range fingerprintInputs(t) {
		for _, shape := range [][2]int{{1, 1}, {2, 1}, {3, 2}} {
			res, err := RunInProcess(in.el, in.n, shape[0], Options{Threads: shape[1]})
			if err != nil {
				t.Fatalf("%s at ranks=%d threads=%d: %v", in.name, shape[0], shape[1], err)
			}
			fp := parallelGolden{
				Name: fmt.Sprintf("%s/ranks%d/t%d", in.name, shape[0], shape[1]),
				Rows: res.RowsEvaluated, CommRounds: res.CommRounds, CommBytes: res.CommBytes,
				Levels: []parallelLevelGolden{}, QBits: floatBits(res.Q),
			}
			for _, lv := range res.Levels {
				fp.Levels = append(fp.Levels, parallelLevelGolden{lv.InnerIterations, floatBits(lv.Q)})
			}
			got = append(got, fp)
		}
	}

	path := filepath.Join("testdata", "parallel_fingerprint.json")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs every input: run it without -short")
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fingerprint file (run with -update to create): %v", err)
	}
	var want []parallelGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(got) != len(want) {
		t.Fatalf("%d fingerprints, the fixture has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from the fixture:\n got  %+v\n want %+v", want[i].Name, got[i], want[i])
		}
	}
}
