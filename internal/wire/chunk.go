package wire

// Per-thread plane building for one scatter round. A ChunkedPlanes holds one
// Planes set per builder thread (its chunk of every destination's plane);
// threads append records with the ordinary Buffer codecs, and ConcatInto
// collapses the chunks — in thread order — into one Planes set for a single
// blocking Exchange. Because build ranges are contiguous and assigned in
// thread order, the concatenation is byte for byte what a serial build would
// have written.

// ChunkedPlanes coordinates the per-thread writers of one scatter phase.
// Init re-arms it for a round (buffer capacity survives); a single value is
// meant to live as long as the engine that owns it.
type ChunkedPlanes struct {
	writers []Planes
}

// Init re-arms c for one round: threads writers over dests destinations,
// every buffer empty.
func (c *ChunkedPlanes) Init(dests, threads int) {
	if cap(c.writers) < threads {
		w := make([]Planes, threads)
		copy(w, c.writers)
		c.writers = w
	}
	c.writers = c.writers[:threads]
	for t := range c.writers {
		w := &c.writers[t]
		if cap(w.bufs) < dests {
			bufs := make([]Buffer, dests)
			copy(bufs, w.bufs)
			w.bufs = bufs
		}
		w.bufs = w.bufs[:dests]
		w.Reset()
	}
}

// Writer returns thread t's writer.
func (c *ChunkedPlanes) Writer(t int) *Planes { return &c.writers[t] }

// ConcatInto collapses the writers' buffers into p in thread order, so the
// per-destination planes carry the records in exactly the order a serial
// build over the same contiguous index ranges would have written them. With
// a single thread the buffers are swapped into p, making the
// single-threaded path copy-free.
func (c *ChunkedPlanes) ConcatInto(p *Planes) {
	if len(c.writers) == 1 {
		w := &c.writers[0]
		for d := range w.bufs {
			p.bufs[d], w.bufs[d] = w.bufs[d], p.bufs[d]
		}
		return
	}
	for d := range p.bufs {
		b := p.To(d)
		for t := range c.writers {
			b.PutBytes(c.writers[t].bufs[d].Bytes())
		}
	}
}
