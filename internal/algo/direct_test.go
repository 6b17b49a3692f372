package algo

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/wire"
)

// bothPaths runs a whole-graph engine on a one-rank group twice: over mem,
// where Run calls it directly, and over sim, where it still goes through the
// rank-0 harness.
func bothPaths(ctx context.Context, name string, el graph.EdgeList, n int, opt Options) (direct, harness *Result, dErr, hErr error) {
	opt.Ranks, opt.Transport = 1, "mem"
	direct, dErr = Run(ctx, name, el, n, opt)
	opt.Transport = "sim"
	harness, hErr = Run(ctx, name, el, n, opt)
	return
}

// samePartition reports the first field in which two results of one solve
// differ; timings and traffic are the paths' own.
func samePartition(a, b *Result) string {
	switch {
	case !slices.Equal(a.Assignment, b.Assignment): // an empty graph's is nil on one path, empty on the other
		return "Assignment"
	case math.Float64bits(a.Q) != math.Float64bits(b.Q):
		return "Q"
	case !reflect.DeepEqual(a.Levels, b.Levels) || a.Stop != b.Stop:
		return "Levels"
	case a.NumEdges != b.NumEdges || a.NumVertices != b.NumVertices:
		return "NumEdges/NumVertices"
	case !reflect.DeepEqual(a.Extra, b.Extra):
		return "Extra"
	}
	return ""
}

// fractionalList is a multigraph the orientation and summation order of
// which matter: weights that are not sums of powers of two, every third
// record a repeat of an earlier pair in the other orientation, self-loops.
func fractionalList(n, records int, seed uint64) graph.EdgeList {
	x := seed
	next := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(mod))
	}
	el := make(graph.EdgeList, 0, records)
	for len(el) < records {
		u, v := graph.V(next(n)), graph.V(next(n))
		switch {
		case len(el)%3 == 2:
			old := el[next(len(el))]
			u, v = old.V, old.U
		case len(el)%17 == 0:
			v = u
		case u/8 != v/8 && next(4) != 0:
			v = u/8*8 + v%8 // mostly inside blocks of 8, so there is structure to find
			if int(v) >= n {
				v = u
			}
		}
		el = append(el, graph.Edge{U: u, V: v, W: float64(1+next(9)) / 7})
	}
	return el
}

// TestWholeGraphPathsAgree is the tentpole's contract: for every whole-graph
// engine, the direct call Run makes on a one-rank mem group returns what the
// harness returns on the same input, to the bit, with the invariant checker
// on on both sides — and reports that nothing was exchanged.
func TestWholeGraphPathsAgree(t *testing.T) {
	lfr, _, lfrN := testGraph(t)
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 11))
	if err != nil {
		t.Fatal(err)
	}
	if graph.Build(rmat, 0).NumEdges() == len(rmat) {
		t.Fatal("R-MAT input has no duplicate records")
	}
	inputs := []struct {
		name string
		el   graph.EdgeList
		n    int
	}{
		{"lfr", lfr, lfrN},
		{"rmat-duplicates", rmat, 0},
		{"fractional", fractionalList(160, 1500, 5), 0},
		{"fractional-isolated-tail", fractionalList(160, 1500, 6), 200},
	}
	for _, e := range wholeGraphs {
		for _, in := range inputs {
			t.Run(e.Name()+"/"+in.name, func(t *testing.T) {
				opt := Options{Seed: 7, Threads: 2, CheckInvariants: true}
				direct, harness, dErr, hErr := bothPaths(context.Background(), e.Name(), in.el, in.n, opt)
				if dErr != nil || hErr != nil {
					t.Fatalf("direct: %v, harness: %v", dErr, hErr)
				}
				if field := samePartition(direct, harness); field != "" {
					t.Errorf("paths differ in %s:\ndirect  %+v\nharness %+v", field, direct.Levels, harness.Levels)
				}
				if direct.CommRounds != 0 || direct.CommBytes != 0 {
					t.Errorf("direct path reports %d rounds, %d bytes; nothing was exchanged", direct.CommRounds, direct.CommBytes)
				}
				if harness.CommRounds == 0 || harness.CommBytes == 0 {
					t.Errorf("harness reports %d rounds, %d bytes", harness.CommRounds, harness.CommBytes)
				}
			})
		}
	}
}

// TestWholeGraphPathsFailAlike pins error parity: what the harness reports
// through rank 0's status word, the direct path reports in the same words.
// (One word can differ and is not pinned: a bad edge given as U > V is named
// as given by the direct path and as (V,U) by the harness, whose gather only
// ever sees that orientation.)
func TestWholeGraphPathsFailAlike(t *testing.T) {
	good := graph.EdgeList{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 2, V: 3, W: 1}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		el   graph.EdgeList
		n    int
		opt  Options
		// want is a substring of the error; family limits the case to the
		// Louvain family (the other engines take no warm start).
		want   string
		family bool
	}{
		{name: "id outside n", el: append(good[:3:3], graph.Edge{U: 1, V: 7, W: 1}), n: 4, want: "edge (1,7) outside vertex space 4"},
		{name: "NaN weight", el: append(good[:3:3], graph.Edge{U: 2, V: 3, W: math.NaN()}), want: "edge (2,3) has non-finite weight NaN"},
		{name: "Inf weight, n given", el: append(good[:3:3], graph.Edge{U: 2, V: 3, W: math.Inf(-1)}), n: 4, want: "edge (2,3) has non-finite weight -Inf"},
		{name: "short warm start", el: good, opt: Options{Warm: make([]graph.V, 3)}, want: "warm-start", family: true},
		{name: "canceled", ctx: canceled, el: good, want: "context canceled"},
	}
	for _, e := range wholeGraphs {
		for _, tc := range cases {
			if tc.family && !e.info.Hierarchical {
				continue
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			_, _, dErr, hErr := bothPaths(ctx, e.Name(), tc.el, tc.n, tc.opt)
			// Run's wrapping of a rank's error, and of a cancellation.
			prefix := "rank 0: algo: " + e.Name() + " rank 0: "
			if tc.ctx != nil {
				prefix = "algo: " + e.Name() + " canceled: "
			}
			for path, err := range map[string]error{"direct": dErr, "harness": hErr} {
				if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %s, %s: err = %v, want %q...%q", e.Name(), tc.name, path, err, prefix, tc.want)
				}
				if tc.ctx != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("%s, %s, %s: err = %v does not classify as context.Canceled", e.Name(), tc.name, path, err)
				}
			}
			// Under a canceled context the harness's watchdog may close the
			// transport first; every other failure reads the same both ways.
			if tc.ctx == nil && dErr != nil && hErr != nil && dErr.Error() != hErr.Error() {
				t.Errorf("%s, %s: direct says %q, harness %q", e.Name(), tc.name, dErr, hErr)
			}
		}
	}
}

// TestRank0KeepsItsOwnEdges pins the harness's traffic at two ranks by
// equality: rank 0 no longer encodes its own share of the gather to itself,
// so the group ships exactly that many triples less than the parent commit
// did (its totals, measured there on this input, are the constants), in the
// same number of rounds, for the same partition. The outcome plane has since
// grown by the stop reasons: one byte for the descent and one per level, to
// each of the two ranks.
func TestRank0KeepsItsOwnEdges(t *testing.T) {
	el, _, n := testGraph(t)
	parentBytes := map[string]uint64{
		"seq-louvain": 74708, "plm": 74708, "lns": 74708,
		"leiden": 74738, "plp": 75242, "ensemble": 74704,
	}
	own := uint64(singleCounted(graph.SplitEdges(el, 2)[0]))
	if own == 0 || own == uint64(len(el)) {
		t.Fatalf("rank 0 single-counts %d of %d edges; the split is degenerate", own, len(el))
	}
	for _, e := range wholeGraphs {
		two, err := Run(context.Background(), e.Name(), el, n, Options{Ranks: 2, Seed: 7, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		// Invariant checking adds reductions of its own; count without it.
		plain, err := Run(context.Background(), e.Name(), el, n, Options{Ranks: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if plain.CommRounds != 3 {
			t.Errorf("%s: %d rounds at two ranks, want gather + broadcast + accounting = 3", e.Name(), plain.CommRounds)
		}
		stops := uint64(2 * (1 + len(plain.Levels)))
		if want := parentBytes[e.Name()] - wire.TripleSize*own + stops; plain.CommBytes != want {
			t.Errorf("%s: %d bytes at two ranks, want the parent's %d less rank 0's %d triples plus %d stop bytes = %d",
				e.Name(), plain.CommBytes, parentBytes[e.Name()], own, stops, want)
		}
		one, err := Run(context.Background(), e.Name(), el, n, Options{Ranks: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []*Result{plain, one} {
			if field := samePartition(two, other); field != "" {
				t.Errorf("%s: results differ in %s", e.Name(), field)
			}
		}
	}
}

// FuzzWholeGraphPaths decodes bytes into a list on at most 64 vertices —
// four bytes a record: two endpoints, a weight in sevenths, and a byte that
// one time in three repeats an earlier record the other way round — and
// demands of every whole-graph engine that the direct call and the harness
// agree to the bit and both pass the invariant checker.
func FuzzWholeGraphPaths(f *testing.F) {
	f.Add([]byte(nil)) // the empty graph
	f.Add([]byte{0, 1, 7, 0, 1, 2, 3, 0, 2, 0, 9, 1, 5, 5, 1, 0})
	f.Add([]byte("\x00\x01\x01\x00\x01\x00\x02\x01\x3f\x3f\x0e\x00\x3f\x00\x01\x02"))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		var el graph.EdgeList
		for ; len(data) >= 4; data = data[4:] {
			ed := graph.Edge{U: graph.V(data[0] % 64), V: graph.V(data[1] % 64), W: float64(1+data[2]%21) / 7}
			if data[3]%3 == 0 && len(el) > 0 {
				old := el[int(data[3]/3)%len(el)]
				ed.U, ed.V = old.V, old.U
			}
			el = append(el, ed)
		}
		for _, e := range wholeGraphs {
			name := e.Name()
			direct, harness, dErr, hErr := bothPaths(context.Background(), name, el, 0, Options{Seed: 3, CheckInvariants: true})
			if dErr != nil || hErr != nil {
				t.Fatalf("%s: direct: %v, harness: %v", name, dErr, hErr)
			}
			if field := samePartition(direct, harness); field != "" {
				t.Fatalf("%s: paths differ in %s on %v", name, field, el)
			}
		}
	})
}
