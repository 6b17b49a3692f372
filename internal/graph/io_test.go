package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	el := EdgeList{{0, 1, 1}, {1, 2, 2.5}, {3, 3, 1}}
	var buf bytes.Buffer
	if err := WriteText(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(el) {
		t.Fatalf("len = %d, want %d", len(got), len(el))
	}
	for i := range el {
		if got[i] != el[i] {
			t.Errorf("edge %d: %v vs %v", i, got[i], el[i])
		}
	}
}

func TestReadTextCommentsAndDefaults(t *testing.T) {
	in := "# comment\n% matrix-market style comment\n\n0 1\n2 3 4.5\n"
	el, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(el) != 2 || el[0].W != 1 || el[1].W != 4.5 {
		t.Errorf("parsed %v", el)
	}
}

func TestReadTextMalformed(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 1 2 3\n", "0 x\n", "1 2 zz\n", "-1 2\n"} {
		if _, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v, want ErrBadFormat", in, err)
		}
	}
}

// TestReadersRejectNonFiniteWeights pins that a NaN or ±Inf weight, which
// strconv.ParseFloat and the binary record both carry happily, is a format
// error naming the edge in either reader.
func TestReadersRejectNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"NaN", "nan", "Inf", "-Inf", "+Infinity", "1e999"} {
		in := "0 1\n3 4 " + w + "\n"
		_, err := ReadText(strings.NewReader(in))
		if !errors.Is(err, ErrBadFormat) || (w != "1e999" && !strings.Contains(err.Error(), "line 2: edge (3,4) has non-finite weight")) {
			t.Errorf("text weight %q: err = %v, want ErrBadFormat naming line 2 and edge (3,4)", w, err)
		}
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, EdgeList{{0, 1, 1}, {3, 4, w}}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(&buf)
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "edge (3,4) has non-finite weight") {
			t.Errorf("binary weight %v: err = %v, want ErrBadFormat naming edge (3,4)", w, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	el := EdgeList{{0, 1, 1}, {1 << 20, 1 << 21, 0.125}, {7, 7, -3}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range el {
		if got[i] != el[i] {
			t.Errorf("edge %d: %v vs %v", i, got[i], el[i])
		}
	}
}

func TestReadBinaryRejectsCorruption(t *testing.T) {
	el := EdgeList{{0, 1, 1}, {1, 2, 1}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, el); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncated payload.
	if _, err := ReadBinary(bytes.NewReader(full[:len(full)-5])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated: err = %v, want ErrBadFormat", err)
	}
	// Bad magic.
	bad := append([]byte("XXXXX\n"), full[6:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: err = %v, want ErrBadFormat", err)
	}
	// Empty file.
	if _, err := ReadBinary(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("empty: err = %v, want ErrBadFormat", err)
	}
	// Implausible count.
	huge := append([]byte{}, full[:6]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := ReadBinary(bytes.NewReader(huge)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("huge count: err = %v, want ErrBadFormat", err)
	}
}

func TestLoadSaveFileSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	el := EdgeList{{0, 1, 1}, {1, 2, 2}}

	txt := filepath.Join(dir, "g.txt")
	if err := SaveFile(txt, el); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "g.bin")
	if err := SaveFile(bin, el); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{txt, bin} {
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", path, err)
		}
		if len(got) != len(el) {
			t.Errorf("LoadFile(%s): %d edges, want %d", path, len(got), len(el))
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadFile(missing) succeeded")
	}
	// A text file that happens to be short must not be mistaken for binary.
	short := filepath.Join(dir, "short.txt")
	if err := os.WriteFile(short, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadFile(short); err != nil || len(got) != 1 {
		t.Errorf("short text: %v %v", got, err)
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	assign := []V{0, 0, 1, 1, 2}
	var buf bytes.Buffer
	if err := WritePartition(&buf, assign); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(assign) {
		t.Fatalf("len = %d, want %d", len(got), len(assign))
	}
	for i := range assign {
		if got[i] != assign[i] {
			t.Errorf("assign[%d] = %d, want %d", i, got[i], assign[i])
		}
	}
}

func TestReadPartitionMalformed(t *testing.T) {
	for _, in := range []string{"1\n", "a 2\n", "1 b\n"} {
		if _, err := ReadPartition(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v, want ErrBadFormat", in, err)
		}
	}
}

// refReadText, refWriteText, refReadPartition and refWritePartition are the
// text codecs as first written, on strings.TrimSpace, strings.Fields,
// strconv and fmt: the oracles the byte-level codecs are held to, edges bit
// for bit and error text exactly. refReadPartition parses the vertex column
// as an id, as ReadPartition does (strconv.Atoi let a negative id through to
// an index panic).
func refReadText(r io.Reader) (EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var el EdgeList
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' || s[0] == '%' {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("%w: line %d: want 'u v [w]', got %q", ErrBadFormat, line, s)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
			}
		}
		e := Edge{V(u), V(v), w}
		if err := e.CheckWeight(); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		el = append(el, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return el, nil
}

func refWriteText(w io.Writer, el EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, e := range el {
		var err error
		if e.W == 1 {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refWritePartition(w io.Writer, assign []V) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for u, c := range assign {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refReadPartition(r io.Reader) ([]V, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	m := map[int]V{}
	maxU := -1
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: line %d: want 'vertex community'", ErrBadFormat, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		c, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		m[int(u)] = V(c)
		if int(u) > maxU {
			maxU = int(u)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]V, maxU+1)
	for u, c := range m {
		out[u] = c
	}
	return out, nil
}

// sameRead reports how a reader's result differs from its oracle's: edges
// compared bit for bit (so -0 is not 0), errors by their text.
func sameRead(got, want EdgeList, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d edges (nil %v), oracle %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if got[i].U != want[i].U || got[i].V != want[i].V || math.Float64bits(got[i].W) != math.Float64bits(want[i].W) {
			return fmt.Sprintf("edge %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	return ""
}

// textCases are inputs that exercise the field splitter: every ASCII space,
// Unicode spaces (NEL, NBSP, U+2000, U+3000), invalid UTF-8 next to and
// inside fields, comments after leading space, CRLF, and each error path.
var textCases = []string{
	"",
	"0 1\n1 2 2.5\n# c\n% c\n\n",
	"\t 0\v1\f\r\n",
	"   \n0 1\n \t\r\n",
	"\u2009\u3000\n0 1\n",
	"0 1\r\n2 3 0.5\r\n",
	"0\u00851\n",
	"0 1 -0\n",
	" 0 1　\n",
	"  # comment after space\n  % too\n0 1\n",
	"0 1 \xff\n",
	"\xff0 1\n",
	"0\xc2 1\n",
	"0 1\xe2\x80\x80\n",
	"0 1\xe2\x80\n",
	"0\n",
	"0 1 2 3\n",
	"a b\n",
	"-1 2\n",
	"+1 2\n",
	"1_0 2\n",
	"4294967295 4294967296\n",
	"00000000000000000000004294967295 0\n",
	"99999999999999999999999 0\n",
	"1 2 0x1p-2\n",
	"1 2 1_000.5\n",
	"1 2 NaN\n",
	"1 2 -Inf\n",
	"1 2 1e999\n",
	"1 2 4.9e-324\n",
	"1 2 zz\n",
	strings.Repeat("7", 1<<20+1) + " 1\n",
}

func TestReadTextMatchesReference(t *testing.T) {
	for _, in := range textCases {
		got, err := ReadText(strings.NewReader(in))
		want, wantErr := refReadText(strings.NewReader(in))
		if d := sameRead(got, want, err, wantErr); d != "" {
			t.Errorf("input %.40q: %s", in, d)
		}
	}
}

// TestWriteTextMatchesFmt pins WriteText's bytes to fmt's "%d %d %g" for
// weights fractional, huge, tiny, subnormal, negative, -0 and non-finite,
// and WritePartition's to "%d %d".
func TestWriteTextMatchesFmt(t *testing.T) {
	el := EdgeList{{0, 1, 1}, {4294967295, 0, 2.5}, {1, 2, 0.1}, {3, 4, 1.0 / 3},
		{5, 6, 1e21}, {5, 6, 1e20}, {5, 6, 123456789}, {5, 6, math.MaxFloat64},
		{7, 8, 1e-5}, {7, 8, 1e-4}, {7, 8, math.SmallestNonzeroFloat64}, {7, 8, 2.2250738585072014e-308 / 3},
		{9, 10, -1}, {9, 10, -0.75}, {9, 10, math.Copysign(0, -1)}, {9, 10, 0},
		{11, 12, math.Inf(1)}, {11, 12, math.Inf(-1)}, {11, 12, math.NaN()}}
	var got, want bytes.Buffer
	if err := WriteText(&got, el); err != nil {
		t.Fatal(err)
	}
	if err := refWriteText(&want, el); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("WriteText wrote\n%s\nfmt wrote\n%s", got.String(), want.String())
	}
	assign := []V{0, 4294967295, 7, 0}
	got.Reset()
	want.Reset()
	if err := WritePartition(&got, assign); err != nil {
		t.Fatal(err)
	}
	if err := refWritePartition(&want, assign); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("WritePartition wrote %q, fmt wrote %q", got.String(), want.String())
	}
}

// TestReadPartitionNegativeID: a negative vertex id is a format error naming
// its line, not an index panic.
func TestReadPartitionNegativeID(t *testing.T) {
	_, err := ReadPartition(strings.NewReader("0 1\n-1 3\n"))
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want ErrBadFormat naming line 2", err)
	}
}

// TestReadPartitionLastLineWins: a repeated vertex takes its last line's
// community, and a vertex no line names reads 0.
func TestReadPartitionLastLineWins(t *testing.T) {
	got, err := ReadPartition(strings.NewReader("3 5\n1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []V{0, 2, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestFieldsMatchesStrings holds the field splitter to strings.Fields and
// strings.TrimSpace on random lines over pieces that probe its edges: every
// ASCII space, multi-byte spaces, multi-byte non-spaces, truncated and
// invalid UTF-8, and field bytes.
func TestFieldsMatchesStrings(t *testing.T) {
	pieces := []string{" ", "\t", "\v", "\f", "\r", "\x1f", "\x0e", "!", "0", "42", "#", "x",
		"\u0085", "\u00a0", "\u2000", "\u2009", "\u2028", "\u3000", "\u00e9", "\u4e16", "\ufffd",
		"\xe2\x80", "\xc2", "\x80", "\xff", "\xf0\x9f\x98\x80"}
	r := rand.New(rand.NewSource(1))
	var f [3][]byte
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for j := r.Intn(12); j > 0; j-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		line := b.String()
		n, trimmed := fields([]byte(line), f[:])
		want := strings.Fields(line)
		if n != len(want) || string(trimmed) != strings.TrimSpace(line) {
			t.Fatalf("%q: %d fields, trimmed %q; strings: %d, %q", line, n, trimmed, len(want), strings.TrimSpace(line))
		}
		for j := 0; j < min(n, len(f)); j++ {
			if string(f[j]) != want[j] {
				t.Fatalf("%q: field %d = %q, strings.Fields %q", line, j, f[j], want[j])
			}
		}
	}
}
