package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text edge-list format: one edge per line, "u v [w]", '#' comments and
// blank lines ignored, weight defaulting to 1. This is the format used by
// the SNAP datasets the paper evaluates on.
//
// Binary format: magic "PLEL1\n", then uint64 edge count, then (u uint32,
// v uint32, w float64) little-endian records. Binary files are what
// cmd/gengraph writes for large synthetic graphs.

var binMagic = []byte("PLEL1\n")

// ErrBadFormat reports a malformed graph file.
var ErrBadFormat = errors.New("graph: bad file format")

// WriteText writes el in text edge-list form: the bytes of fmt's "%d %d\n",
// or "%d %d %g\n" for a weight other than 1, built in one reused buffer.
func WriteText(w io.Writer, el EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [64]byte // the longest line, two ids and a weight, is 47 bytes
	for _, e := range el {
		b := strconv.AppendUint(scratch[:0], uint64(e.U), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(e.V), 10)
		if e.W != 1 {
			b = append(b, ' ')
			b = strconv.AppendFloat(b, e.W, 'g', -1, 64)
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses a text edge list. A weight that parses as NaN or ±Inf is a
// format error.
//
// Lines are parsed in the scanner's buffer, without a copy: fields are split
// at the space strings.Fields splits at (see fields), ids go through a digit
// loop, and strconv is called only for a weight or to word an error.
func ReadText(r io.Reader) (EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	// Edges collect in chunks of doubling size: full ones, then tail.
	var full []EdgeList
	tail := make(EdgeList, 0, 1024)
	var f [3][]byte
	line := 0
	for sc.Scan() {
		line++
		n, s := fields(sc.Bytes(), f[:])
		if n == 0 || s[0] == '#' || s[0] == '%' {
			continue
		}
		if n < 2 || n > 3 {
			return nil, fmt.Errorf("%w: line %d: want 'u v [w]', got %q", ErrBadFormat, line, s)
		}
		u, ok := parseID(f[0])
		if !ok {
			return nil, badID(line, f[0])
		}
		v, ok := parseID(f[1])
		if !ok {
			return nil, badID(line, f[1])
		}
		e := Edge{u, v, 1}
		if n == 3 {
			var err error
			if e.W, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
			}
			if err := e.CheckWeight(); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
			}
		}
		if len(tail) == cap(tail) {
			full = append(full, tail)
			tail = make(EdgeList, 0, 2*cap(tail))
		}
		tail = append(tail, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return concat(full, tail), nil
}

// concat joins the chunks a reader filled into one list of exactly their
// length, nil if they hold no edge. Chunks that double, joined once, copy
// every edge once; a growing slice would copy each several times.
func concat(full []EdgeList, tail EdgeList) EdgeList {
	n := len(tail)
	for _, c := range full {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	if len(full) == 0 {
		return tail
	}
	el := make(EdgeList, 0, n)
	for _, c := range full {
		el = append(el, c...)
	}
	return append(el, tail...)
}

// fields splits line at runs of space as strings.Fields does, storing the
// first len(f) ≤ 3 fields in f. It returns the number of fields, which may
// exceed len(f), and the line trimmed as strings.TrimSpace trims it. Space is
// what both take for it: an ASCII space byte, or the UTF-8 encoding of a rune
// unicode.IsSpace accepts.
//
// The scan has no branch on the data but the one for bytes at or above 0x80:
// every byte's position is stored at at[k], and k steps on at each change
// between space and field, so at holds the field bounds when the line ends.
// Such a byte is classed outside the loop, which keeps the loop's state in
// registers.
func fields(line []byte, f [][]byte) (n int, trimmed []byte) {
	var at [8]int // start, end of fields 1 to 3, start of the 4th; at[7] absorbs the rest
	k, prev, last := 0, 1, 0
	for i := 0; i < len(line); {
		for ; i < len(line) && byteClass[line[i]] < 2; i++ {
			sp := int(byteClass[line[i]])
			change := sp ^ prev
			at[min(k, 7)] = i
			if change&sp != 0 {
				last = i
			}
			k, prev = k+change, sp
		}
		if i == len(line) {
			break
		}
		sp, w := 0, 1
		if s := unicodeSpace(line[i:]); s > 0 {
			sp, w = 1, s
		}
		change := sp ^ prev
		at[min(k, 7)] = i
		if change&sp != 0 {
			last = i
		}
		k, prev = k+change, sp
		i += w
	}
	if prev == 0 {
		at[min(k, 7)], last = len(line), len(line)
		k++
	}
	if k == 0 { // all space: at[0] holds a position, not a field's start
		return 0, line[:0]
	}
	n = k / 2
	for j := 0; j < min(n, len(f)); j++ {
		f[j] = line[at[2*j]:at[2*j+1]]
	}
	return n, line[at[0]:last]
}

// byteClass is 1 for an ASCII space byte, 2 for a byte at or above 0x80 (the
// first of a rune that may be a space), and 0 for any other byte.
var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = 1
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = 2
	}
	return c
}()

// unicodeSpace returns the width of the space rune b starts with, 0 if it
// does not start with one.
func unicodeSpace(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// parseID parses a vertex id: decimal digits only, at most 2³²-1 — what
// strconv.ParseUint(s, 10, 32) accepts.
func parseID(b []byte) (V, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var x uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if x = x*10 + uint64(d); x > math.MaxUint32 {
			return 0, false
		}
	}
	return V(x), true
}

// badID is the format error for an id parseID refused, worded by strconv.
func badID(line int, b []byte) error {
	_, err := strconv.ParseUint(string(b), 10, 32)
	return fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
}

// WriteBinary writes el in the binary edge-list format.
func WriteBinary(w io.Writer, el EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(el)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [16]byte
	for _, e := range el {
		binary.LittleEndian.PutUint32(rec[0:4], e.U)
		binary.LittleEndian.PutUint32(rec[4:8], e.V)
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(e.W))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary edge-list format, validating the magic and
// record count so truncated files are rejected rather than silently loaded,
// and every weight as finite.
func ReadBinary(r io.Reader) (EdgeList, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if string(magic) != string(binMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing edge count: %v", ErrBadFormat, err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxEdges = 1 << 34
	if n > maxEdges {
		return nil, fmt.Errorf("%w: implausible edge count %d", ErrBadFormat, n)
	}
	// The count is a claim until the records arrive: reserve at most 1 MiB
	// of edges up front and let append grow the rest, so a header that
	// promises billions of edges to a short input cannot exhaust memory.
	el := make(EdgeList, 0, min(n, 1<<16))
	var rec [16]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at edge %d/%d: %v", ErrBadFormat, i, n, err)
		}
		e := Edge{
			U: binary.LittleEndian.Uint32(rec[0:4]),
			V: binary.LittleEndian.Uint32(rec[4:8]),
			W: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
		}
		if err := e.CheckWeight(); err != nil {
			return nil, fmt.Errorf("%w: edge %d/%d: %v", ErrBadFormat, i, n, err)
		}
		el = append(el, e)
	}
	return el, nil
}

// LoadFile reads a graph file, choosing the format by sniffing the magic.
func LoadFile(path string) (EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(binMagic))
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == len(binMagic) && string(head) == string(binMagic) {
		return ReadBinary(f)
	}
	return ReadText(f)
}

// SaveFile writes a graph file; binary when the path ends in ".bin",
// text otherwise.
func SaveFile(path string, el EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		if err := WriteBinary(f, el); err != nil {
			return err
		}
	} else if err := WriteText(f, el); err != nil {
		return err
	}
	return f.Close()
}

// WritePartition writes a community assignment, one "vertex community" pair
// per line: the bytes of fmt's "%d %d\n", built in one reused buffer.
func WritePartition(w io.Writer, assign []V) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [32]byte
	for u, c := range assign {
		b := strconv.AppendUint(scratch[:0], uint64(u), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(c), 10)
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPartition parses a community assignment file. Both columns are ids
// (decimal, at most 2³²-1), fields split as in ReadText. The last line for a
// vertex wins, and a vertex no line names reads community 0.
func ReadPartition(r io.Reader) ([]V, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	out := []V{}
	var f [2][]byte
	line := 0
	for sc.Scan() {
		line++
		n, s := fields(sc.Bytes(), f[:])
		if n == 0 || s[0] == '#' {
			continue
		}
		if n != 2 {
			return nil, fmt.Errorf("%w: line %d: want 'vertex community'", ErrBadFormat, line)
		}
		u, ok := parseID(f[0])
		if !ok {
			return nil, badID(line, f[0])
		}
		c, ok := parseID(f[1])
		if !ok {
			return nil, badID(line, f[1])
		}
		if int(u) >= len(out) {
			out = append(out, make([]V, int(u)+1-len(out))...)
		}
		out[u] = c
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
