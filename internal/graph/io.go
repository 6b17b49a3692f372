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

// WriteText writes el in text edge-list form.
func WriteText(w io.Writer, el EdgeList) error {
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

// ReadText parses a text edge list. A weight that parses as NaN or ±Inf is a
// format error.
func ReadText(r io.Reader) (EdgeList, error) {
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
	el := make(EdgeList, 0, n)
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
// per line.
func WritePartition(w io.Writer, assign []V) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for u, c := range assign {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPartition parses a community assignment file.
func ReadPartition(r io.Reader) ([]V, error) {
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
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		c, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, line, err)
		}
		m[u] = V(c)
		if u > maxU {
			maxU = u
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
