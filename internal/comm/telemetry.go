package comm

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Out-of-band telemetry channel: a best-effort, rank→0 push path that lives
// outside the collective Exchange order. The BSP transports are lockstep —
// every rank must join every round — which makes them unusable for
// monitoring traffic that must flow while ranks compute. TelemetryConn is
// the escape hatch: any rank may Send a payload toward rank 0 at any time,
// rank 0 drains the merged feed from Recv, and nothing about it is
// collective — a slow collector drops payloads (counted) instead of
// stalling the algorithm, and a dead telemetry path never tears down the
// group.
//
// Delivery guarantees are deliberately weak: payloads may be dropped (full
// queue, injected chaos faults) or duplicated (chaos), never corrupted or
// reordered per source. The obs/agg layer's sequence numbers absorb both.

// TelemetryConn is one rank's handle on the out-of-band telemetry channel.
type TelemetryConn interface {
	// Send pushes one payload toward rank 0, best-effort: a full queue
	// returns ErrTelemetryDropped (payload discarded), a closed transport
	// ErrClosed. Safe for concurrent use.
	Send(payload []byte) error
	// Recv returns the merged delivery stream — non-nil only on rank 0.
	// The channel closes when the transport group closes.
	Recv() <-chan []byte
	// Close releases this rank's handle (the group-wide stream on rank 0
	// stays open until the transport closes).
	Close() error
}

// Telemeter is the optional transport capability behind Comm.OpenTelemetry.
type Telemeter interface {
	OpenTelemetry() (TelemetryConn, error)
}

// ErrTelemetryUnsupported marks a transport without an out-of-band channel.
var ErrTelemetryUnsupported = errors.New("comm: transport does not support telemetry")

// ErrTelemetryDropped reports a payload discarded because the collector's
// queue was full (or an injected chaos fault exhausted its budget). The
// telemetry plane is best-effort: callers count and continue.
var ErrTelemetryDropped = errors.New("comm: telemetry payload dropped")

// OpenTelemetry opens the out-of-band telemetry channel on transports that
// support it (mem, TCP, sim, and chaos over any of them).
func (c *Comm) OpenTelemetry() (TelemetryConn, error) {
	if tm, ok := c.tr.(Telemeter); ok {
		return tm.OpenTelemetry()
	}
	return nil, ErrTelemetryUnsupported
}

// telQueueDepth bounds the rank-0 delivery queue. Deep enough to absorb a
// whole group's periodic flush burst, small enough that an abandoned
// collector cannot hoard memory.
const telQueueDepth = 256

// telHub is the rank-0 delivery queue shared by the in-process transports
// and the TCP receiver: senders enqueue owned payload slices, the collector
// drains hub.ch. Drop-on-full keeps enqueue non-blocking.
type telHub struct {
	mu     sync.Mutex
	ch     chan []byte
	closed bool
	drops  atomic.Uint64
}

func newTelHub() *telHub {
	return &telHub{ch: make(chan []byte, telQueueDepth)}
}

// deliver enqueues p (ownership transfers). Best-effort: a full queue
// counts a drop, a closed hub returns ErrClosed.
func (h *telHub) deliver(p []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	select {
	case h.ch <- p:
		return nil
	default:
		h.drops.Add(1)
		return ErrTelemetryDropped
	}
}

// close ends the delivery stream; subsequent deliveries return ErrClosed.
func (h *telHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.closed = true
		close(h.ch)
	}
}

// Drops returns payloads discarded because the queue was full.
func (h *telHub) Drops() uint64 { return h.drops.Load() }

// telConn is the hub-backed TelemetryConn used by the in-process transports
// and rank 0's TCP loopback.
type telConn struct {
	hub  *telHub
	recv bool
}

func (c *telConn) Send(p []byte) error {
	cp := append([]byte(nil), p...)
	return c.hub.deliver(cp)
}

func (c *telConn) Recv() <-chan []byte {
	if c.recv {
		return c.hub.ch
	}
	return nil
}

func (c *telConn) Close() error { return nil }

// TelemetryDrops reports payloads dropped at this transport's rank-0
// delivery queue (0 and ok=false on transports without a local queue).
func TelemetryDrops(tr Transport) (uint64, bool) {
	type dropper interface{ telemetryDrops() uint64 }
	if d, ok := tr.(dropper); ok {
		return d.telemetryDrops(), true
	}
	return 0, false
}
