package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlouvain/internal/wire"
)

// tcpTransport implements Transport over a full mesh of TCP connections:
// each ordered pair (src, dst) has one dedicated connection carrying src's
// planes to dst, framed as [uint64 length][payload]. Because every rank
// sends exactly one frame per peer per round, the per-connection FIFO order
// gives the same per-source round alignment as the in-process transport.
//
// Hardening over a bare mesh:
//
//   - Mesh setup dials with exponential backoff + jitter and verifies a
//     (magic, protocol version, rank, size) handshake on every accepted
//     connection instead of trusting frame order; the acceptor acknowledges,
//     so a rejected dialer learns immediately.
//   - Exchange applies per-round read/write deadlines when
//     TCPConfig.RoundTimeout is set, converting a stalled peer into a
//     rank-attributed timeout error instead of an indefinite hang.
//   - Close is idempotent and race-safe (atomic closed state); a rank
//     parked in Exchange when its own transport closes returns ErrClosed
//     rather than hanging, and its dropped connections unblock every peer.
type tcpTransport struct {
	rank, size int
	ln         net.Listener
	outConns   []net.Conn      // outConns[dst], nil for self
	outBufs    []*bufio.Writer // matching buffered writers
	inConns    []net.Conn      // inConns[src], nil for self
	inBufs     []*bufio.Reader // matching buffered readers

	roundTimeout time.Duration
	rounds       atomic.Uint64

	// Telemetry channel state: addr0 is rank 0's listen address (dialed
	// lazily by OpenTelemetry on non-zero ranks), tel the rank-0 delivery
	// queue, telConns the live telemetry sockets (both directions) so Close
	// can tear them down.
	addr0    string
	tel      *telHub
	telConns map[net.Conn]struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	connMu    sync.Mutex // guards inConns/telConns writes during setup vs Close
}

// Handshake framing: every dialer opens with a fixed 24-byte hello —
// magic, protocol version, its rank and the group size — and the acceptor
// answers one ack byte after validating all four fields. Mismatched
// versions, sizes or duplicate ranks are detected at setup, not as frame
// corruption mid-run.
//
// Version 3 adds the out-of-band telemetry channel: a connection whose
// hello sets the high bit of the rank field is a telemetry feed into rank
// 0, not a mesh edge. Telemetry connections are dialed lazily (at
// OpenTelemetry), so rank 0's accept loop stays up for the life of the
// transport instead of exiting after mesh setup.
const (
	tcpMagic        = 0x504C564D // "PLVM"
	tcpProtoVersion = 3
	tcpHelloLen     = 24
	tcpHelloAck     = 0xA5

	// tcpTelemetryFlag marks the hello's rank field as a telemetry
	// connection from that rank. Real ranks are far below 2^63.
	tcpTelemetryFlag = uint64(1) << 63

	// tcpTelemetryMaxFrame caps one telemetry frame; batches are a few KiB,
	// so anything near the cap is corruption, not load.
	tcpTelemetryMaxFrame = 1 << 24

	// tcpTelemetryIOTimeout bounds post-setup telemetry handshakes and
	// sends, converting a wedged collector connection into a local error on
	// the best-effort path instead of a goroutine leak.
	tcpTelemetryIOTimeout = 10 * time.Second
)

// TCPConfig configures a TCP rank group.
type TCPConfig struct {
	// Rank and Addrs: this process is rank Rank and Addrs[i] is the
	// listen address of rank i (host:port). Addresses must be non-empty
	// and pairwise distinct.
	Rank  int
	Addrs []string
	// DialTimeout bounds the whole mesh setup (default 30s).
	DialTimeout time.Duration
	// RoundTimeout, when positive, bounds each Exchange round's per-peer
	// reads and writes: a peer that stalls longer than this yields a
	// rank-attributed timeout error instead of blocking forever. Zero
	// keeps the pre-hardening lossless-interconnect behaviour (no I/O
	// deadlines).
	RoundTimeout time.Duration
}

// NewTCP creates the transport for one rank of a TCP group. It listens on
// Addrs[Rank], dials every peer with backoff, handshakes both directions of
// the mesh, and returns once the full mesh is established. All ranks of the
// group must call NewTCP concurrently.
func NewTCP(cfg TCPConfig) (Transport, error) {
	size := len(cfg.Addrs)
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addrs", cfg.Rank, size)
	}
	seen := make(map[string]int, size)
	for i, a := range cfg.Addrs {
		if strings.TrimSpace(a) == "" {
			return nil, fmt.Errorf("comm: TCPConfig.Addrs[%d] is empty: every rank needs a listen address", i)
		}
		if j, dup := seen[a]; dup {
			return nil, fmt.Errorf("comm: TCPConfig.Addrs[%d] duplicates Addrs[%d] (%q): listen addresses must be pairwise distinct", i, j, a)
		}
		seen[a] = i
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	deadline := time.Now().Add(cfg.DialTimeout)

	t := &tcpTransport{
		rank:         cfg.Rank,
		size:         size,
		outConns:     make([]net.Conn, size),
		outBufs:      make([]*bufio.Writer, size),
		inConns:      make([]net.Conn, size),
		inBufs:       make([]*bufio.Reader, size),
		roundTimeout: cfg.RoundTimeout,
		addr0:        cfg.Addrs[0],
		tel:          newTelHub(),
		telConns:     map[net.Conn]struct{}{},
	}
	if size == 1 {
		return t, nil
	}

	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
	}
	t.ln = ln

	// Accept incoming connections concurrently with dialing out. Every
	// accepted connection must present a valid hello; during mesh setup a
	// bad hello is fatal for the group, afterwards the loop stays resident
	// for lazily-dialed telemetry connections and merely drops bad ones.
	acceptErr := make(chan error, 1)
	go func() {
		meshN := 0
		meshDone := false
		for {
			conn, err := ln.Accept()
			if err != nil {
				if !meshDone {
					acceptErr <- err
				}
				return // listener closed: transport shutting down
			}
			helloBy := deadline
			if meshDone {
				helloBy = time.Now().Add(tcpTelemetryIOTimeout)
			}
			src, isTel, err := t.acceptHello(conn, helloBy)
			if err != nil {
				conn.Close()
				if !meshDone {
					acceptErr <- err
					return
				}
				continue
			}
			if isTel {
				_ = src // telemetry frames are self-attributed (batch header)
				t.connMu.Lock()
				if t.closed.Load() {
					t.connMu.Unlock()
					conn.Close()
					continue
				}
				t.telConns[conn] = struct{}{}
				t.connMu.Unlock()
				go t.serveTelemetry(conn)
				continue
			}
			if meshDone {
				conn.Close() // late mesh hello: not part of this group's setup
				continue
			}
			t.connMu.Lock()
			t.inConns[src] = conn
			t.connMu.Unlock()
			t.inBufs[src] = bufio.NewReaderSize(conn, 1<<16)
			meshN++
			if meshN == size-1 {
				meshDone = true
				acceptErr <- nil
			}
		}
	}()

	// Dial every peer with exponential backoff + jitter until it is
	// listening or the setup deadline hits. Jitter decorrelates the
	// thundering herd of a whole group restarting at once.
	jitter := rand.New(rand.NewSource(int64(cfg.Rank)*2654435761 + 1))
	acceptDone := false
	for dst := 0; dst < size; dst++ {
		if dst == cfg.Rank {
			continue
		}
		backoff := 5 * time.Millisecond
		var conn net.Conn
		for {
			conn, err = net.DialTimeout("tcp", cfg.Addrs[dst], time.Until(deadline))
			if err == nil {
				break
			}
			// A failed accept (bad handshake, rogue connection) is
			// fatal for the whole setup — notice it mid-dial instead
			// of spinning until the deadline.
			if !acceptDone {
				select {
				case aerr := <-acceptErr:
					if aerr != nil {
						t.Close()
						return nil, aerr
					}
					acceptDone = true
				default:
				}
			}
			if time.Now().After(deadline) {
				t.Close()
				return nil, fmt.Errorf("comm: rank %d dial rank %d (%s): %w", cfg.Rank, dst, cfg.Addrs[dst], err)
			}
			time.Sleep(backoff + time.Duration(jitter.Int63n(int64(backoff/2)+1)))
			if backoff < 250*time.Millisecond {
				backoff *= 2
			}
		}
		if err := t.dialHello(conn, dst, deadline); err != nil {
			conn.Close()
			t.Close()
			return nil, err
		}
		t.outConns[dst] = conn
		t.outBufs[dst] = bufio.NewWriterSize(conn, 1<<16)
	}

	if !acceptDone {
		select {
		case err := <-acceptErr:
			if err != nil {
				t.Close()
				return nil, err
			}
		case <-time.After(time.Until(deadline)):
			t.Close()
			return nil, fmt.Errorf("comm: rank %d timed out accepting peers", cfg.Rank)
		}
	}
	return t, nil
}

// dialHello sends this rank's handshake on a freshly dialed connection and
// waits for the acceptor's ack.
func (t *tcpTransport) dialHello(conn net.Conn, dst int, deadline time.Time) error {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	var hello [tcpHelloLen]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], tcpProtoVersion)
	binary.LittleEndian.PutUint64(hello[8:], uint64(t.rank))
	binary.LittleEndian.PutUint64(hello[16:], uint64(t.size))
	if _, err := conn.Write(hello[:]); err != nil {
		return fmt.Errorf("comm: rank %d hello to rank %d: %w", t.rank, dst, err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("comm: rank %d awaiting hello ack from rank %d: %w", t.rank, dst, err)
	}
	if ack[0] != tcpHelloAck {
		return fmt.Errorf("comm: rank %d: rank %d rejected handshake (ack 0x%02x)", t.rank, dst, ack[0])
	}
	return nil
}

// acceptHello validates an inbound handshake and acknowledges it, returning
// the verified peer rank and whether the connection is a telemetry feed
// (high bit of the rank field) rather than a mesh edge.
func (t *tcpTransport) acceptHello(conn net.Conn, deadline time.Time) (int, bool, error) {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	var hello [tcpHelloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, false, fmt.Errorf("comm: rank %d reading hello: %w", t.rank, err)
	}
	if magic := binary.LittleEndian.Uint32(hello[0:]); magic != tcpMagic {
		return 0, false, fmt.Errorf("comm: rank %d: bad hello magic 0x%08x (not a parlouvain peer?)", t.rank, magic)
	}
	if v := binary.LittleEndian.Uint32(hello[4:]); v != tcpProtoVersion {
		return 0, false, fmt.Errorf("comm: rank %d: peer speaks protocol version %d, want %d", t.rank, v, tcpProtoVersion)
	}
	rankField := binary.LittleEndian.Uint64(hello[8:])
	isTel := rankField&tcpTelemetryFlag != 0
	src := int(rankField &^ tcpTelemetryFlag)
	peerSize := int(binary.LittleEndian.Uint64(hello[16:]))
	if peerSize != t.size {
		return 0, false, fmt.Errorf("comm: rank %d: peer rank %d configured for %d ranks, this group has %d", t.rank, src, peerSize, t.size)
	}
	if isTel {
		if t.rank != 0 {
			return 0, false, fmt.Errorf("comm: rank %d: telemetry hello from rank %d, but only rank 0 collects", t.rank, src)
		}
		if src < 0 || src >= t.size {
			return 0, false, fmt.Errorf("comm: rank %d: invalid telemetry hello rank %d", t.rank, src)
		}
	} else {
		if src < 0 || src >= t.size || src == t.rank {
			return 0, false, fmt.Errorf("comm: rank %d: invalid hello rank %d", t.rank, src)
		}
		t.connMu.Lock()
		dup := t.inConns[src] != nil
		t.connMu.Unlock()
		if dup {
			return 0, false, fmt.Errorf("comm: rank %d: duplicate hello from rank %d", t.rank, src)
		}
	}
	if _, err := conn.Write([]byte{tcpHelloAck}); err != nil {
		return 0, false, fmt.Errorf("comm: rank %d acking hello from rank %d: %w", t.rank, src, err)
	}
	return src, isTel, nil
}

// serveTelemetry pumps length-framed telemetry payloads from one accepted
// connection into the rank-0 delivery queue until the connection or the
// transport closes. Errors just end the feed — telemetry is best-effort.
func (t *tcpTransport) serveTelemetry(conn net.Conn) {
	defer func() {
		t.connMu.Lock()
		delete(t.telConns, conn)
		t.connMu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 1<<14)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > tcpTelemetryMaxFrame {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		// Best-effort: drop-on-full is counted by the hub.
		_ = t.tel.deliver(buf)
	}
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

func (t *tcpTransport) telemetryDrops() uint64 { return t.tel.Drops() }

// OpenTelemetry implements Telemeter. Rank 0's handle is a loopback into
// its own delivery queue; every other rank lazily dials a dedicated
// telemetry connection to rank 0 (flagged in the hello), separate from the
// mesh so monitoring traffic can never interleave with round frames.
func (t *tcpTransport) OpenTelemetry() (TelemetryConn, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("comm: rank %d: %w", t.rank, ErrClosed)
	}
	if t.rank == 0 {
		return &telConn{hub: t.tel, recv: true}, nil
	}
	deadline := time.Now().Add(tcpTelemetryIOTimeout)
	conn, err := net.DialTimeout("tcp", t.addr0, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d dialing telemetry to rank 0 (%s): %w", t.rank, t.addr0, err)
	}
	conn.SetDeadline(deadline)
	var hello [tcpHelloLen]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], tcpProtoVersion)
	binary.LittleEndian.PutUint64(hello[8:], uint64(t.rank)|tcpTelemetryFlag)
	binary.LittleEndian.PutUint64(hello[16:], uint64(t.size))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("comm: rank %d telemetry hello: %w", t.rank, err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("comm: rank %d awaiting telemetry ack: %w", t.rank, err)
	}
	if ack[0] != tcpHelloAck {
		conn.Close()
		return nil, fmt.Errorf("comm: rank %d: rank 0 rejected telemetry handshake (ack 0x%02x)", t.rank, ack[0])
	}
	conn.SetDeadline(time.Time{})
	t.connMu.Lock()
	if t.closed.Load() {
		t.connMu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("comm: rank %d: %w", t.rank, ErrClosed)
	}
	t.telConns[conn] = struct{}{}
	t.connMu.Unlock()
	return &tcpTelConn{t: t, conn: conn, bw: bufio.NewWriterSize(conn, 1<<14)}, nil
}

// tcpTelConn is the send side of a dialed telemetry connection.
type tcpTelConn struct {
	t    *tcpTransport
	conn net.Conn
	bw   *bufio.Writer

	mu     sync.Mutex
	closed bool
}

func (c *tcpTelConn) Send(p []byte) error {
	if len(p) > tcpTelemetryMaxFrame {
		return fmt.Errorf("comm: telemetry payload of %d bytes exceeds frame cap %d", len(p), tcpTelemetryMaxFrame)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.t.closed.Load() {
		return fmt.Errorf("comm: rank %d: %w", c.t.rank, ErrClosed)
	}
	c.conn.SetWriteDeadline(time.Now().Add(tcpTelemetryIOTimeout))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	_, err := c.bw.Write(hdr[:])
	if err == nil {
		_, err = c.bw.Write(p)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		// A dead telemetry path never affects the mesh: close this
		// connection and report the send as a local, best-effort failure.
		c.closeLocked()
		return fmt.Errorf("comm: rank %d telemetry send: %w", c.t.rank, err)
	}
	return nil
}

func (c *tcpTelConn) Recv() <-chan []byte { return nil }

func (c *tcpTelConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

func (c *tcpTelConn) closeLocked() {
	if c.closed {
		return
	}
	c.closed = true
	c.t.connMu.Lock()
	delete(c.t.telConns, c.conn)
	c.t.connMu.Unlock()
	c.conn.Close()
}

func (t *tcpTransport) Exchange(out [][]byte) ([][]byte, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("comm: rank %d: %w", t.rank, ErrClosed)
	}
	round := t.rounds.Add(1) - 1
	in := wire.GetPlaneList(t.size)
	// Self-delivery, copied into a pooled plane.
	if t.rank < len(out) && len(out[t.rank]) > 0 {
		p := wire.GetPlane(len(out[t.rank]))
		copy(p, out[t.rank])
		in[t.rank] = p
	} else {
		in[t.rank] = []byte{}
	}
	if t.size == 1 {
		return in, nil
	}

	// Send and receive concurrently: serialized sends could deadlock
	// against a peer whose socket buffers are full of its own sends.
	errc := make(chan error, 2)
	go func() {
		for dst := 0; dst < t.size; dst++ {
			if dst == t.rank {
				continue
			}
			var plane []byte
			if dst < len(out) {
				plane = out[dst]
			}
			if t.roundTimeout > 0 {
				t.outConns[dst].SetWriteDeadline(time.Now().Add(t.roundTimeout))
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint64(hdr[:], uint64(len(plane)))
			if _, err := t.outBufs[dst].Write(hdr[:]); err != nil {
				errc <- t.roundErr(round, "send header to", dst, err)
				return
			}
			if _, err := t.outBufs[dst].Write(plane); err != nil {
				errc <- t.roundErr(round, "send to", dst, err)
				return
			}
			if err := t.outBufs[dst].Flush(); err != nil {
				errc <- t.roundErr(round, "flush to", dst, err)
				return
			}
		}
		errc <- nil
	}()
	go func() {
		const maxPlane = 1 << 33
		for src := 0; src < t.size; src++ {
			if src == t.rank {
				continue
			}
			if t.roundTimeout > 0 {
				t.inConns[src].SetReadDeadline(time.Now().Add(t.roundTimeout))
			}
			var hdr [8]byte
			if _, err := io.ReadFull(t.inBufs[src], hdr[:]); err != nil {
				errc <- t.roundErr(round, "recv header from", src, err)
				return
			}
			n := binary.LittleEndian.Uint64(hdr[:])
			if n > maxPlane {
				errc <- fmt.Errorf("comm: rank %d round %d: implausible plane size %d from rank %d", t.rank, round, n, src)
				return
			}
			buf := wire.GetPlane(int(n))
			if _, err := io.ReadFull(t.inBufs[src], buf); err != nil {
				errc <- t.roundErr(round, "recv from", src, err)
				return
			}
			in[src] = buf
		}
		errc <- nil
	}()
	var firstErr error
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		// A rank whose own transport was closed mid-round sees its
		// connection reads/writes fail; report that as a graceful
		// ErrClosed, not connection noise. Any other failure is fatal for
		// the whole group: tear down our side so peers unblock too.
		if t.closed.Load() {
			return nil, fmt.Errorf("comm: rank %d: %w", t.rank, ErrClosed)
		}
		t.Close()
		return nil, firstErr
	}
	return in, nil
}

// roundErr attributes an I/O failure to (this rank, round, peer), marking
// deadline expiries explicitly so a stalled peer reads as a timeout rather
// than generic connection noise.
func (t *tcpTransport) roundErr(round uint64, verb string, peer int, err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() && t.roundTimeout > 0 {
		return fmt.Errorf("comm: rank %d round %d: %s rank %d timed out after %v: %w",
			t.rank, round, verb, peer, t.roundTimeout, err)
	}
	return fmt.Errorf("comm: rank %d round %d: %s rank %d: %w", t.rank, round, verb, peer, err)
}

// Rounds returns the number of Exchange rounds entered.
func (t *tcpTransport) Rounds() uint64 { return t.rounds.Load() }

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, c := range t.outConns {
			if c != nil {
				c.Close()
			}
		}
		t.connMu.Lock()
		for _, c := range t.inConns {
			if c != nil {
				c.Close()
			}
		}
		for c := range t.telConns {
			c.Close()
		}
		t.connMu.Unlock()
		if t.tel != nil {
			t.tel.close()
		}
	})
	return nil
}

// LocalAddrs returns n distinct loopback listen addresses with
// kernel-assigned free ports, for starting an in-machine TCP group.
func LocalAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// Release the ports for the ranks to re-bind. This is briefly racy
	// (another process could steal a port) but fine for tests/examples.
	for _, l := range lns {
		l.Close()
	}
	return addrs, nil
}
