package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestChunkedPlanesBulkConcat checks that Concat joins the writers' planes
// in thread order — the order a serial build over the same contiguous ranges
// would have produced — into the planes it was armed with.
func TestChunkedPlanesBulkConcat(t *testing.T) {
	const dests, threads = 2, 3
	out := GetPlanes(dests)
	defer out.Release()
	cp := GetChunkedPlanes(out, threads)
	defer cp.Release()
	out.To(0).PutBytes([]byte("stale"))
	want := make([][]byte, dests)
	for th := 0; th < threads; th++ {
		w := cp.Writer(th)
		for d := 0; d < dests; d++ {
			rec := fmt.Sprintf("t%d->d%d", th, d)
			w.To(d).PutBytes([]byte(rec))
			want[d] = append(want[d], rec...)
		}
	}
	if p := cp.Concat(); p != out {
		t.Fatal("Concat returned planes it was not armed with")
	}
	for d := 0; d < dests; d++ {
		if !bytes.Equal(out.To(d).Bytes(), want[d]) {
			t.Fatalf("dst %d: got %q want %q", d, out.To(d).Bytes(), want[d])
		}
	}
}

// TestChunkedPlanesSingleThreadWritesOut: with one thread the writer is the
// planes the round sends, so the build is not copied, and no writer is drawn
// from the pool or handed back to it.
func TestChunkedPlanesSingleThreadWritesOut(t *testing.T) {
	out := GetPlanes(1)
	defer out.Release()
	cp := GetChunkedPlanes(out, 1)
	if cp.Writer(0) != out {
		t.Fatal("the single thread's writer is not the planes it sends")
	}
	cp.Writer(0).To(0).PutBytes([]byte("built"))
	if p := cp.Concat(); p != out || string(out.To(0).Bytes()) != "built" {
		t.Fatalf("Concat = %q", out.To(0).Bytes())
	}
	cp.Release()
	if out.Size() != 1 || string(out.To(0).Bytes()) != "built" {
		t.Error("Release touched the planes the caller armed it with")
	}
}
