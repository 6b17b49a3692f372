package comm

import (
	"sync"

	"parlouvain/internal/wire"
)

// memHub connects the in-process transports of one rank group. Delivery is
// a matrix of buffered channels: mail[dst][src] carries the plane sent from
// src to dst in one round. Each channel has capacity 1, which is sufficient
// because Exchange is a full round: a rank can run at most one round ahead
// of a peer, and it blocks on the peer's channel until the peer drains the
// previous round.
type memHub struct {
	size int
	mail [][]chan []byte

	// tel is the out-of-band telemetry queue (see telemetry.go): any rank
	// enqueues, rank 0 drains.
	tel *telHub

	done      chan struct{}
	closeOnce sync.Once
}

// memTransport is one rank's view of a memHub.
type memTransport struct {
	hub  *memHub
	rank int
}

// NewMemGroup creates size connected in-process transports, one per rank.
// Closing any member aborts in-flight and future exchanges on the whole
// group, so the death of one rank cannot hang the others.
func NewMemGroup(size int) []Transport {
	if size < 1 {
		size = 1
	}
	hub := &memHub{
		size: size,
		mail: make([][]chan []byte, size),
		tel:  newTelHub(),
		done: make(chan struct{}),
	}
	for d := 0; d < size; d++ {
		hub.mail[d] = make([]chan []byte, size)
		for s := 0; s < size; s++ {
			hub.mail[d][s] = make(chan []byte, 1)
		}
	}
	trs := make([]Transport, size)
	for r := 0; r < size; r++ {
		trs[r] = &memTransport{hub: hub, rank: r}
	}
	return trs
}

func (t *memTransport) Rank() int { return t.rank }
func (t *memTransport) Size() int { return t.hub.size }

func (t *memTransport) Exchange(out [][]byte) ([][]byte, error) {
	select {
	case <-t.hub.done:
		return nil, ErrClosed
	default:
	}
	size := t.hub.size
	// Deliver our planes. Planes are copied (into pooled buffers) so that
	// callers may reuse their own after Exchange returns, matching the TCP
	// transport; the receiver recycles them via wire.ReleasePlanes.
	for dst := 0; dst < size; dst++ {
		var plane []byte
		if dst < len(out) && len(out[dst]) > 0 {
			plane = wire.GetPlane(len(out[dst]))
			copy(plane, out[dst])
		} else {
			plane = []byte{}
		}
		select {
		case t.hub.mail[dst][t.rank] <- plane:
		case <-t.hub.done:
			return nil, ErrClosed
		}
	}
	// Collect everyone's plane for us, in source order.
	in := wire.GetPlaneList(size)
	for src := 0; src < size; src++ {
		select {
		case in[src] = <-t.hub.mail[t.rank][src]:
		case <-t.hub.done:
			return nil, ErrClosed
		}
	}
	return in, nil
}

func (t *memTransport) Close() error {
	t.hub.closeOnce.Do(func() {
		close(t.hub.done)
		t.hub.tel.close()
	})
	return nil
}

// OpenTelemetry implements Telemeter: payloads flow through the hub's
// shared queue; rank 0's handle carries the receive side.
func (t *memTransport) OpenTelemetry() (TelemetryConn, error) {
	select {
	case <-t.hub.done:
		return nil, ErrClosed
	default:
	}
	return &telConn{hub: t.hub.tel, recv: t.rank == 0}, nil
}

func (t *memTransport) telemetryDrops() uint64 { return t.hub.tel.Drops() }
