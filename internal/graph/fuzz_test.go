package graph

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Fuzz targets guard the file parsers against panics and enforce the
// round-trip invariants on whatever survives parsing; the text codecs are
// also held to their strings/strconv/fmt oracles in io_test.go. Run with
// `go test -fuzz=FuzzReadText ./internal/graph` for deep exploration;
// plain `go test` replays the seed corpus below.

func FuzzReadText(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n# comment\n")
	f.Add("")
	f.Add("0 0 0\n")
	f.Add("4294967295 4294967295 1e308\n")
	f.Add("a b c\n")
	f.Add("1 2 NaN\n")
	f.Add("0 1 1\n1 2 -Inf\n")
	f.Add("1 2 +infinity\n")
	f.Add(strings.Repeat("1 2\n", 100))
	for _, in := range textCases {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		el, err := ReadText(strings.NewReader(in))
		want, wantErr := refReadText(strings.NewReader(in))
		if d := sameRead(el, want, err, wantErr); d != "" {
			t.Fatalf("ReadText differs from the oracle: %s", d)
		}
		if err != nil {
			return
		}
		for _, e := range el {
			if e.CheckWeight() != nil {
				t.Fatalf("parsed a non-finite weight: %v", e)
			}
		}
		// Whatever parsed must survive a write/read round trip with
		// identical edges (modulo float formatting fidelity).
		var buf, ref bytes.Buffer
		if err := WriteText(&buf, el); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		if err := refWriteText(&ref, el); err != nil || buf.String() != ref.String() {
			t.Fatalf("WriteText wrote %q, the oracle %q (%v)", buf.String(), ref.String(), err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(el) {
			t.Fatalf("round trip changed edge count: %d vs %d", len(back), len(el))
		}
		// Building a graph from any parsed input must not panic. Dense
		// vertex arrays are sized MaxVertex+1, so bound the id space the
		// fuzzer can make us allocate.
		if el.NumVertices() <= 1<<20 {
			g := Build(el, 0)
			_ = g.NumEdges()
		}
	})
}

// FuzzBuild reads its input as 5-byte records (u, v: 12 bits each; w: 1..8,
// so every sum is exact) and holds Build to the CSR contract and to the
// comparison-sort build, and Partition.InRows at one to three ranks to the
// comparison-sort rows of refInRows.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 1, 0, 3, 1, 0, 1, 0, 4})
	f.Add([]byte{7, 1, 2, 0, 0, 2, 0, 7, 1, 1, 2, 0, 2, 0, 5, 255, 255, 0, 0, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		el := make(EdgeList, 0, len(in)/5)
		for ; len(in) >= 5; in = in[5:] {
			el = append(el, Edge{V(in[0]) | V(in[1]&15)<<8, V(in[2]) | V(in[3]&15)<<8, float64(1 + in[4]%8)})
		}
		g := Build(el, 0)
		sumDeg := 0.0
		for u := 0; u < g.N; u++ {
			sumDeg += g.Deg[u]
			row := g.Nbr[g.Off[u]:g.Off[u+1]]
			for i, v := range row {
				if v == V(u) || (i > 0 && row[i-1] >= v) {
					t.Fatalf("row %d = %v: not strictly ascending without self", u, row)
				}
				back := g.Nbr[g.Off[v]:g.Off[v+1]]
				j := sort.Search(len(back), func(j int) bool { return back[j] >= V(u) })
				if j == len(back) || back[j] != V(u) || g.NbrW[g.Off[v]+int64(j)] != g.NbrW[g.Off[u]+int64(i)] {
					t.Fatalf("entry %d->%d has no mirror of equal weight", u, v)
				}
			}
		}
		if sumDeg != 2*g.M || g.M != el.TotalWeight() {
			t.Fatalf("sum of degrees %v, M %v, input weight %v", sumDeg, g.M, el.TotalWeight())
		}
		if back := Build(g.EdgeList(), g.N); !reflect.DeepEqual(back, g) {
			t.Fatalf("Build(g.EdgeList()) differs from g")
		}
		if ref := refBuild(el, 0); !reflect.DeepEqual(g, ref) {
			t.Fatalf("Build differs from the comparison-sort build")
		}
		for size := 1; size <= 3; size++ {
			for r, local := range SplitEdges(el, size) {
				p := Partition{Rank: r, Size: size}
				in := append(EdgeList(nil), local...)
				off, src, w, err := p.InRows(local, g.N)
				if err != nil {
					t.Fatalf("rank %d/%d: %v", r, size, err)
				}
				if !reflect.DeepEqual(local, in) {
					t.Fatalf("rank %d/%d: InRows changed its input", r, size)
				}
				wantOff, wantSrc, wantW := refInRows(p, local, g.N)
				if !reflect.DeepEqual(off, wantOff) || !reflect.DeepEqual(src, wantSrc) || !reflect.DeepEqual(w, wantW) {
					t.Fatalf("rank %d/%d: InRows differs from the comparison sort on %v", r, size, local)
				}
			}
		}
	})
}

// refInRows is InRows by comparison sort: records stably sorted by (local
// destination, source), a pair's records summed in input order.
func refInRows(p Partition, local EdgeList, n int) (off []int64, src []V, w []float64) {
	recs := append(EdgeList(nil), local...)
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].V != recs[j].V {
			return recs[i].V < recs[j].V
		}
		return recs[i].U < recs[j].U
	})
	off = make([]int64, p.MaxLocalCount(n)+1)
	src, w = []V{}, []float64{}
	for i, e := range recs {
		if i > 0 && recs[i-1].U == e.U && recs[i-1].V == e.V {
			w[len(w)-1] += e.W
			continue
		}
		off[p.LocalIndex(e.V)+1]++
		src, w = append(src, e.U), append(w, e.W)
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	return off, src, w
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, EdgeList{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: -1}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PLEL1\n"))
	f.Add([]byte("PLEL1\n\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("garbage that is long enough to not be magic"))
	f.Fuzz(func(t *testing.T, in []byte) {
		el, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, el); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(el) {
			t.Fatalf("round trip changed edge count")
		}
	})
}

func FuzzReadPartition(f *testing.F) {
	f.Add("0 1\n1 1\n2 0\n")
	f.Add("")
	f.Add("5 4294967295\n")
	f.Add("1048575 7\n")
	f.Add("x y\n")
	f.Add("-1 3\n")
	f.Add("2 1\n0 5\n2 3\n")
	f.Add("+4 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		// ReadPartition returns a dense vector sized by the largest
		// vertex id; keep hostile ids from allocating gigabytes.
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && len(fields[0]) > 7 {
				return
			}
		}
		assign, err := ReadPartition(strings.NewReader(in))
		want, wantErr := refReadPartition(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(assign, want) {
			t.Fatalf("ReadPartition = %v, oracle %v", assign, want)
		}
		var buf, ref bytes.Buffer
		if err := WritePartition(&buf, assign); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		if err := refWritePartition(&ref, assign); err != nil || buf.String() != ref.String() {
			t.Fatalf("WritePartition wrote %q, the oracle %q (%v)", buf.String(), ref.String(), err)
		}
		back, err := ReadPartition(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(assign) {
			t.Fatalf("round trip changed length")
		}
		for i := range assign {
			if back[i] != assign[i] {
				t.Fatalf("round trip changed assign[%d]", i)
			}
		}
	})
}
