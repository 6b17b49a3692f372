package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
)

// hierarchyGolden is the refactor-stable fingerprint of one whole-graph
// engine run: everything in it must stay bit-identical for a fixed input no
// matter how the level loop and the gain scan are factored. Floats are
// stored as their IEEE-754 bit patterns so the comparison is exact.
type hierarchyGolden struct {
	Name         string        `json:"name"`
	QBits        string        `json:"q_bits"`
	Levels       []levelGolden `json:"levels"`
	LeidenSplits int           `json:"leiden_splits"`
	Membership   string        `json:"membership_fnv64"`
}

type levelGolden struct {
	QBits        string `json:"q_bits"`
	Vertices     int    `json:"vertices"`
	Communities  int    `json:"communities"`
	MovesPerIter []int  `json:"moves_per_iter"`
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func fingerprint(name string, res *Result) hierarchyGolden {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range res.Membership {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	out := hierarchyGolden{
		Name:         name,
		QBits:        floatBits(res.Q),
		Levels:       []levelGolden{},
		LeidenSplits: res.LeidenSplits,
		Membership:   fmt.Sprintf("%016x", h.Sum64()),
	}
	for _, lv := range res.Levels {
		out.Levels = append(out.Levels, levelGolden{
			QBits:        floatBits(lv.Q),
			Vertices:     lv.Vertices,
			Communities:  lv.Communities,
			MovesPerIter: append([]int{}, lv.MovesPerIter...),
		})
	}
	return out
}

// TestHierarchyGolden pins seq-louvain, plm, leiden and lns bit-for-bit on a
// community-rich and a weakly-structured graph, seeded and unseeded, cold and
// warm. The fixture was generated from the four per-engine level loops before
// they were collapsed onto one driver; regenerate only for a deliberate
// algorithmic change: `go test ./internal/core -run HierarchyGolden -update`.
func TestHierarchyGolden(t *testing.T) {
	lfr, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 21))
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 21))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"lfr2000", graph.Build(lfr, 2000)},
		{"rmat10", graph.Build(rmat, 1<<10)},
	}
	engines := []struct {
		name string
		run  func(*graph.Graph, Options) (*Result, error)
	}{
		{"sequential", Sequential}, {"plm", PLM}, {"leiden", Leiden}, {"lns", LNS},
	}

	var got []hierarchyGolden
	for _, gr := range graphs {
		// A coarse, deliberately poor warm start: blocks of 8 consecutive ids.
		warm := make([]graph.V, gr.g.N)
		for v := range warm {
			warm[v] = graph.V(v / 8)
		}
		for _, e := range engines {
			for _, seed := range []uint64{0, 9} {
				name := fmt.Sprintf("%s/%s/seed%d/t1", e.name, gr.name, seed)
				got = append(got, fingerprint(name, must(t)(e.run(gr.g, Options{Seed: seed, Threads: 1}))))
				if e.name != "lns" { // lns ignored Warm when the fixture was cut
					got = append(got, fingerprint(name+"/warm", must(t)(e.run(gr.g, Options{Seed: seed, Threads: 1, Warm: warm}))))
				}
			}
		}
		for _, seed := range []uint64{0, 9} {
			name := fmt.Sprintf("plm/%s/seed%d/t2", gr.name, seed)
			got = append(got, fingerprint(name, must(t)(PLM(gr.g, Options{Seed: seed, Threads: 2}))))
		}
	}

	path := filepath.Join("testdata", "hierarchy_golden.json")
	if *updateGolden {
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
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []hierarchyGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s diverged from the golden hierarchy:\n got  %+v\n want %+v", want[i].Name, got[i], want[i])
		}
	}
}
