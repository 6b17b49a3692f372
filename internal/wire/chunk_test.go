package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestChunkedPlanesBulkConcat checks that ConcatInto joins the writers'
// planes in thread order — the order a serial build over the same
// contiguous ranges would have produced.
func TestChunkedPlanesBulkConcat(t *testing.T) {
	const dests, threads = 2, 3
	var cp ChunkedPlanes
	cp.Init(dests, threads)
	want := make([][]byte, dests)
	for th := 0; th < threads; th++ {
		w := cp.Writer(th)
		for d := 0; d < dests; d++ {
			rec := fmt.Sprintf("t%d->d%d", th, d)
			w.To(d).PutBytes([]byte(rec))
			want[d] = append(want[d], rec...)
		}
	}
	p := GetPlanes(dests)
	defer p.Release()
	cp.ConcatInto(p)
	for d := 0; d < dests; d++ {
		if !bytes.Equal(p.To(d).Bytes(), want[d]) {
			t.Fatalf("dst %d: got %q want %q", d, p.To(d).Bytes(), want[d])
		}
	}
}

// TestChunkedPlanesBulkSingleThreadSwap: with one thread the concat is a
// buffer swap, not a copy — the plane must alias the writer's old storage.
func TestChunkedPlanesBulkSingleThreadSwap(t *testing.T) {
	var cp ChunkedPlanes
	cp.Init(1, 1)
	w := cp.Writer(0)
	w.To(0).PutBytes([]byte("swapped"))
	backing := w.To(0).Bytes()
	p := GetPlanes(1)
	defer p.Release()
	cp.ConcatInto(p)
	out := p.To(0).Bytes()
	if string(out) != "swapped" {
		t.Fatalf("plane = %q", out)
	}
	if &out[0] != &backing[0] {
		t.Error("single-thread concat copied instead of swapping buffers")
	}
}
