package wire

// Per-thread plane building for one scatter round. A ChunkedPlanes holds one
// Planes set per builder thread (its chunk of every destination's plane);
// threads append records with the ordinary Buffer codecs, and Concat
// collapses the chunks — in thread order — into the one Planes set a single
// blocking Exchange sends. Because build ranges are contiguous and assigned in
// thread order, the concatenation is byte for byte what a serial build would
// have written.

// ChunkedPlanes coordinates the per-thread writers of one scatter phase.
// Reset re-arms them for a round (buffer capacity survives); a single value is
// meant to live as long as the engine that owns it.
type ChunkedPlanes struct {
	out     *Planes
	writers []*Planes
}

// GetChunkedPlanes arms threads writers that collapse into out. With one
// thread the writer is out itself, so a single-threaded build writes the
// planes it sends, with no copy; more threads draw their writers from the
// plane pool (GetPlanes), so a new owner starts with the buffers an earlier
// one grew, and Release hands them back.
func GetChunkedPlanes(out *Planes, threads int) *ChunkedPlanes {
	c := &ChunkedPlanes{out: out, writers: []*Planes{out}}
	if threads > 1 {
		c.writers = make([]*Planes, threads)
		for t := range c.writers {
			c.writers[t] = GetPlanes(out.Size())
		}
	}
	return c
}

// Reset re-arms c for one round: every writer's buffers empty, capacity kept.
func (c *ChunkedPlanes) Reset() {
	for _, w := range c.writers {
		w.Reset()
	}
}

// Writer returns thread t's writer.
func (c *ChunkedPlanes) Writer(t int) *Planes { return c.writers[t] }

// Concat collapses the writers' buffers into out in thread order, so the
// per-destination planes carry the records in exactly the order a serial
// build over the same contiguous index ranges would have written them, and
// returns out. With a single thread out holds them already.
func (c *ChunkedPlanes) Concat() *Planes {
	if len(c.writers) == 1 {
		return c.out
	}
	c.out.Reset()
	for d := range c.out.bufs {
		b := c.out.To(d)
		for _, w := range c.writers {
			b.PutBytes(w.bufs[d].Bytes())
		}
	}
	return c.out
}

// Release returns the writers drawn from the pool, the last first, so that
// the next GetChunkedPlanes of the same shape — called, as an engine calls it,
// right after the GetPlanes that draws its out — tends to hand each thread the
// buffers it grew. out stays the caller's. The caller must not use c
// afterwards.
func (c *ChunkedPlanes) Release() {
	if len(c.writers) > 1 {
		for t := len(c.writers) - 1; t >= 0; t-- {
			c.writers[t].Release()
		}
	}
	c.writers = nil
}
