// Package comm is the message-passing runtime that replaces the paper's
// fine-grained MPI/PAMI messaging layer (their refs [27]-[29]). The parallel
// Louvain algorithm only needs a small BSP-style surface — all-to-all
// exchange of byte planes, barriers and reductions — which this package
// provides over two interchangeable transports:
//
//   - Mem: rank-per-goroutine channels inside one process, used to simulate
//     N compute nodes on a single machine (the default for experiments).
//   - TCP: rank-per-socket over net, used to run ranks as separate OS
//     processes (cmd/louvaind) or separate machines.
//
// Both transports deliver identical bytes in identical per-source order, so
// algorithm results are independent of the transport. Plane encoding — for
// the collectives here and for the per-phase planes the engines build — is
// the internal/wire codec layer; transports draw receive planes from its
// buffer pool, and receivers hand them back with wire.ReleasePlanes once
// decoded, keeping steady-state rounds allocation-free.
package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// Transport performs one synchronous all-to-all round: out[i] is delivered
// to rank i (out[rank] locally), and the returned in[j] holds the bytes rank
// j sent here in the same round. A nil out[i] is delivered as empty. All
// ranks must call Exchange the same number of times; the call blocks until
// every peer's contribution for this round has arrived.
//
// Delivered planes are drawn from the wire plane pool; callers that fully
// decode a round should return it with wire.ReleasePlanes (optional — an
// unreleased round is ordinary garbage — but released planes must never be
// read again).
type Transport interface {
	Rank() int
	Size() int
	Exchange(out [][]byte) ([][]byte, error)
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// Comm wraps a Transport with the typed collectives used by the algorithm.
// It also counts traffic for the experiment harness.
type Comm struct {
	tr Transport

	// Traffic counters (bytes and rounds), local to this rank. Atomic:
	// worker threads of one rank may drive concurrent planes in future
	// layouts, and debug endpoints read them while Exchange runs.
	bytesSent     atomic.Uint64
	bytesReceived atomic.Uint64
	rounds        atomic.Uint64

	// Optional registry instruments (see Instrument). Nil checks keep the
	// uninstrumented hot path at three atomic adds per round.
	sentC, recvC, roundsC *obs.Counter
	latencyH, planeH      *obs.Histogram
}

// New wraps a transport.
func New(tr Transport) *Comm { return &Comm{tr: tr} }

// Instrument mirrors this Comm's traffic into reg and enables the
// per-round latency and plane-size histograms:
//
//	comm_bytes_sent_total / comm_bytes_received_total / comm_rounds_total
//	comm_exchange_seconds (histogram of Exchange round latency)
//	comm_plane_bytes      (histogram of outbound plane sizes)
//
// Several Comms (an in-process rank group) may share one registry; the
// instruments are atomic, so the registry then carries group totals.
func (c *Comm) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.sentC = reg.Counter("comm_bytes_sent_total")
	c.recvC = reg.Counter("comm_bytes_received_total")
	c.roundsC = reg.Counter("comm_rounds_total")
	c.latencyH = reg.Histogram("comm_exchange_seconds", obs.LatencyBuckets)
	c.planeH = reg.Histogram("comm_plane_bytes", obs.SizeBuckets)
}

// BytesSent returns the total bytes this rank put on the wire.
//
// Deprecated: accessor kept for the pre-obs field API; reads are atomic.
func (c *Comm) BytesSent() uint64 { return c.bytesSent.Load() }

// BytesReceived returns the total bytes delivered to this rank.
//
// Deprecated: accessor kept for the pre-obs field API; reads are atomic.
func (c *Comm) BytesReceived() uint64 { return c.bytesReceived.Load() }

// Rounds returns the number of completed Exchange rounds.
//
// Deprecated: accessor kept for the pre-obs field API; reads are atomic.
func (c *Comm) Rounds() uint64 { return c.rounds.Load() }

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.tr.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.tr.Size() }

// Close releases the underlying transport.
func (c *Comm) Close() error { return c.tr.Close() }

// SimNow returns the simulated makespan when the underlying transport is a
// simulated (SimGroup) transport, and ok=false otherwise.
func (c *Comm) SimNow() (d time.Duration, ok bool) {
	if sc, isSim := c.tr.(SimClock); isSim {
		return sc.SimNow(), true
	}
	return 0, false
}

// Exchange performs a raw all-to-all, maintaining traffic counters and the
// optional round-latency / plane-size histograms.
func (c *Comm) Exchange(out [][]byte) ([][]byte, error) {
	if len(out) != c.Size() {
		return nil, fmt.Errorf("comm: Exchange with %d planes for %d ranks", len(out), c.Size())
	}
	var sent uint64
	for _, b := range out {
		sent += uint64(len(b))
		if c.planeH != nil {
			c.planeH.Observe(float64(len(b)))
		}
	}
	c.bytesSent.Add(sent)
	if c.sentC != nil {
		c.sentC.Add(sent)
	}
	var start time.Time
	if c.latencyH != nil {
		start = time.Now()
	}
	in, err := c.tr.Exchange(out)
	if err != nil {
		return nil, err
	}
	if c.latencyH != nil {
		c.latencyH.Observe(time.Since(start).Seconds())
	}
	var recv uint64
	for _, b := range in {
		recv += uint64(len(b))
	}
	c.bytesReceived.Add(recv)
	if c.recvC != nil {
		c.recvC.Add(recv)
	}
	c.rounds.Add(1)
	if c.roundsC != nil {
		c.roundsC.Inc()
	}
	return in, nil
}

// ExchangePlanes ships the encoded per-destination planes of p — the
// send-side counterpart of wire.ReleasePlanes. The views handed to the
// transport stay valid until p is next Reset or Released.
func (c *Comm) ExchangePlanes(p *wire.Planes) ([][]byte, error) {
	return c.Exchange(p.Views())
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	out := wire.GetPlaneList(c.Size())
	in, err := c.Exchange(out)
	wire.ReleaseList(out)
	if err != nil {
		return err
	}
	wire.ReleasePlanes(in)
	return nil
}

// broadcastSame sends the same payload to every rank and returns the
// per-source results. The out-index is pooled; the caller releases the
// received round.
func (c *Comm) broadcastSame(payload []byte) ([][]byte, error) {
	out := wire.GetPlaneList(c.Size())
	for i := range out {
		out[i] = payload
	}
	in, err := c.Exchange(out)
	wire.ReleaseList(out)
	return in, err
}

// ReduceOp selects the combining operator of a reduction.
type ReduceOp uint8

const (
	// OpSum adds contributions.
	OpSum ReduceOp = iota
	// OpMin takes the minimum.
	OpMin
	// OpMax takes the maximum.
	OpMax
)

// AllReduceFloat64 combines one float64 per rank with op; every rank
// receives the result. Contributions are folded in rank order on every
// rank, so the result is bit-identical everywhere — callers branch on it
// collectively, and a last-ulp divergence would desynchronize the group.
func (c *Comm) AllReduceFloat64(x float64, op ReduceOp) (float64, error) {
	buf := wire.GetBuffer()
	buf.PutF64(x)
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return 0, err
	}
	defer wire.ReleasePlanes(in)
	var acc float64
	var r wire.Reader
	for src := 0; src < c.Size(); src++ {
		var v float64
		if src == c.Rank() {
			v = x
		} else {
			if len(in[src]) != 8 {
				return 0, fmt.Errorf("comm: AllReduceFloat64 got %d bytes from rank %d", len(in[src]), src)
			}
			r.Reset(in[src])
			v = r.F64()
		}
		if src == 0 {
			acc = v
			continue
		}
		switch op {
		case OpSum:
			acc += v
		case OpMin:
			if v < acc {
				acc = v
			}
		case OpMax:
			if v > acc {
				acc = v
			}
		}
	}
	return acc, nil
}

// AllReduceUint64 combines one uint64 per rank with op.
func (c *Comm) AllReduceUint64(x uint64, op ReduceOp) (uint64, error) {
	buf := wire.GetBuffer()
	buf.PutU64(x)
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return 0, err
	}
	defer wire.ReleasePlanes(in)
	acc := x
	var r wire.Reader
	for src, b := range in {
		if src == c.Rank() {
			continue
		}
		if len(b) != 8 {
			return 0, fmt.Errorf("comm: AllReduceUint64 got %d bytes from rank %d", len(b), src)
		}
		r.Reset(b)
		v := r.U64()
		switch op {
		case OpSum:
			acc += v
		case OpMin:
			if v < acc {
				acc = v
			}
		case OpMax:
			if v > acc {
				acc = v
			}
		}
	}
	return acc, nil
}

// AllReduceBool combines one bool per rank in a single one-byte exchange
// round: with and=true it returns the logical AND, otherwise the logical
// OR. (Both operators fold from the same round — frontier-emptiness checks
// in BFS/SSSP run one collective per superstep, not two.)
func (c *Comm) AllReduceBool(x bool, and bool) (bool, error) {
	buf := wire.GetBuffer()
	if x {
		buf.PutBytes([]byte{1})
	} else {
		buf.PutBytes([]byte{0})
	}
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return false, err
	}
	defer wire.ReleasePlanes(in)
	acc := x
	for src, b := range in {
		if src == c.Rank() {
			continue
		}
		if len(b) != 1 {
			return false, fmt.Errorf("comm: AllReduceBool got %d bytes from rank %d", len(b), src)
		}
		v := b[0] != 0
		if and {
			acc = acc && v
		} else {
			acc = acc || v
		}
	}
	return acc, nil
}

// AllReduceFloat64Slice element-wise sums a fixed-length vector across
// ranks; every rank receives the combined vector. Used for the gain
// histogram of the threshold heuristic.
func (c *Comm) AllReduceFloat64Slice(xs []float64) error {
	buf := wire.GetBuffer()
	buf.PutF64s(xs)
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(in)
	// Fold in rank order for cross-rank bit-identical results.
	acc := make([]float64, len(xs))
	var r wire.Reader
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			for i := range acc {
				acc[i] += xs[i]
			}
			continue
		}
		r.Reset(in[src])
		if n := r.Uvarint(); r.Err() != nil || n != uint64(len(xs)) {
			return fmt.Errorf("comm: vector length mismatch from rank %d: got %d, want %d", src, n, len(xs))
		}
		for i := range acc {
			acc[i] += r.F64()
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("comm: vector from rank %d: %w", src, err)
		}
	}
	copy(xs, acc)
	return nil
}

// AllReduceUint64Slice element-wise sums a fixed-length uint64 vector.
// Integer addition commutes exactly, so contributions accumulate in place
// with no per-call scratch.
func (c *Comm) AllReduceUint64Slice(xs []uint64) error {
	buf := wire.GetBuffer()
	buf.PutU64s(xs)
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return err
	}
	defer wire.ReleasePlanes(in)
	var r wire.Reader
	for src, b := range in {
		if src == c.Rank() {
			continue
		}
		r.Reset(b)
		if n := r.Uvarint(); r.Err() != nil || n != uint64(len(xs)) {
			return fmt.Errorf("comm: vector length mismatch from rank %d", src)
		}
		for i := range xs {
			xs[i] += r.U64()
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("comm: vector from rank %d: %w", src, err)
		}
	}
	return nil
}

// AllGatherUint32 concatenates each rank's slice in rank order; every rank
// receives the full concatenation. Used to assemble per-level assignment
// vectors for result reporting; payloads travel as delta-varint assignment
// planes (wire.Buffer.PutAssign), a fraction of the fixed-width size once
// the vectors coarsen.
func (c *Comm) AllGatherUint32(xs []uint32) ([][]uint32, error) {
	buf := wire.GetBuffer()
	buf.PutAssign(xs)
	in, err := c.broadcastSame(buf.Bytes())
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	defer wire.ReleasePlanes(in)
	out := make([][]uint32, c.Size())
	var r wire.Reader
	for src, b := range in {
		if src == c.Rank() {
			out[src] = xs
			continue
		}
		r.Reset(b)
		v := r.Assign(nil)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("comm: gather payload from rank %d: %w", src, err)
		}
		if r.More() {
			return nil, fmt.Errorf("comm: trailing bytes in gather payload from rank %d", src)
		}
		out[src] = v
	}
	return out, nil
}
