package graph

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
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
