package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTCPGroup establishes a full mesh on loopback with the given per-round
// timeout, failing the test on any setup error.
func newTCPGroup(t *testing.T, size int, roundTimeout time.Duration) []Transport {
	t.Helper()
	addrs, err := LocalAddrs(size)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]Transport, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewTCP(TCPConfig{
				Rank: r, Addrs: addrs,
				DialTimeout:  10 * time.Second,
				RoundTimeout: roundTimeout,
			})
			if err != nil {
				t.Errorf("NewTCP rank %d: %v", r, err)
				return
			}
			trs[r] = tr
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return trs
}

func TestNewTCPRejectsEmptyAddr(t *testing.T) {
	_, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{"127.0.0.1:9", "  "}})
	if err == nil {
		t.Fatal("NewTCP accepted an empty listen address")
	}
	if !strings.Contains(err.Error(), "Addrs[1]") || !strings.Contains(err.Error(), "empty") {
		t.Errorf("error %q does not name the empty entry", err)
	}
}

func TestNewTCPRejectsDuplicateAddrs(t *testing.T) {
	_, err := NewTCP(TCPConfig{
		Rank:  0,
		Addrs: []string{"127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9000"},
	})
	if err == nil {
		t.Fatal("NewTCP accepted duplicate listen addresses")
	}
	for _, frag := range []string{"Addrs[2]", "Addrs[0]", "127.0.0.1:9000", "distinct"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
}

// dialHelloRaw connects to addr (retrying until its listener is up) and
// sends an arbitrary 24-byte hello.
func dialHelloRaw(t *testing.T, addr string, hello [tcpHelloLen]byte) net.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	return conn
}

// startLoneRank launches NewTCP for rank 0 of a 2-rank group whose rank 1
// will never appear, returning the listen address and the pending result.
func startLoneRank(t *testing.T) (string, chan error) {
	t.Helper()
	addrs, err := LocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 never appears: free its port, so rank 0's dials are refused.
	reserved.adopt(addrs[1]).Close()
	res := make(chan error, 1)
	go func() {
		tr, err := NewTCP(TCPConfig{Rank: 0, Addrs: addrs, DialTimeout: 8 * time.Second})
		if tr != nil {
			tr.Close()
		}
		res <- err
	}()
	return addrs[0], res
}

// TestTCPHandshakeRejectsBadMagic: a connection that does not speak the
// handshake protocol must fail mesh setup with a descriptive error instead
// of being trusted by arrival order.
func TestTCPHandshakeRejectsBadMagic(t *testing.T) {
	addr, res := startLoneRank(t)
	var hello [tcpHelloLen]byte // all zeros: wrong magic
	conn := dialHelloRaw(t, addr, hello)
	defer conn.Close()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("NewTCP accepted a connection with a bad magic")
		}
		if !strings.Contains(err.Error(), "magic") {
			t.Errorf("error %q does not mention the bad magic", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("NewTCP did not fail fast on a bad handshake")
	}
}

// TestTCPHandshakeRejectsWrongGroupSize: a peer configured for a different
// group size is detected at setup.
func TestTCPHandshakeRejectsWrongGroupSize(t *testing.T) {
	addr, res := startLoneRank(t)
	var hello [tcpHelloLen]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], tcpProtoVersion)
	binary.LittleEndian.PutUint64(hello[8:], 1)
	binary.LittleEndian.PutUint64(hello[16:], 5) // group size mismatch
	conn := dialHelloRaw(t, addr, hello)
	defer conn.Close()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("NewTCP accepted a peer with a mismatched group size")
		}
		if !strings.Contains(err.Error(), "configured for 5") {
			t.Errorf("error %q does not report the size mismatch", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("NewTCP did not fail fast on a size mismatch")
	}
}

// TestTCPHandshakeRejectsWrongVersion: protocol version skew is a setup
// error, not mid-run frame corruption.
func TestTCPHandshakeRejectsWrongVersion(t *testing.T) {
	addr, res := startLoneRank(t)
	var hello [tcpHelloLen]byte
	binary.LittleEndian.PutUint32(hello[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hello[4:], tcpProtoVersion+7)
	binary.LittleEndian.PutUint64(hello[8:], 1)
	binary.LittleEndian.PutUint64(hello[16:], 2)
	conn := dialHelloRaw(t, addr, hello)
	defer conn.Close()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("NewTCP accepted a peer with a mismatched protocol version")
		}
		if !strings.Contains(err.Error(), "protocol version") {
			t.Errorf("error %q does not report the version mismatch", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("NewTCP did not fail fast on a version mismatch")
	}
}

// TestTCPCloseMidRound closes one rank's transport from another goroutine
// while both ranks are mid-exchange-loop — the shutdown race that a plain
// bool `closed` flag loses under -race. The closed rank must come back with
// ErrClosed, the survivor with a peer error, and neither may hang.
func TestTCPCloseMidRound(t *testing.T) {
	trs := newTCPGroup(t, 2, 0)
	defer closeGroup(trs)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			payload := make([]byte, 4096)
			for {
				if _, err := trs[r].Exchange([][]byte{payload, payload}); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	time.Sleep(30 * time.Millisecond)
	trs[1].Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("a rank hung after mid-round Close")
	}
	if !errors.Is(errs[1], ErrClosed) {
		t.Errorf("closed rank error = %v, want ErrClosed", errs[1])
	}
	if errs[0] == nil {
		t.Error("surviving rank kept exchanging against a closed peer")
	} else if errors.Is(errs[0], ErrClosed) {
		t.Errorf("surviving rank misreported its peer's death as its own close: %v", errs[0])
	}
}

// TestTCPExchangeLargePlanes: planes far larger than the socket buffers (8 MiB
// each way between every pair) arrive whole and in order at two and three
// ranks, with the last rank entering the round 200 ms after the others. A
// rank's caller writes while its reader drains the sockets, so the ranks'
// writes cannot deadlock against each other, and a write to the late rank
// finds its reader draining even before that rank enters the round.
func TestTCPExchangeLargePlanes(t *testing.T) {
	const size = 8 << 20
	// plane is what src sends dst: a 61-byte block naming the pair, repeated
	// past 8 MiB, src bytes longer than its sibling planes.
	plane := func(src, dst int) []byte {
		block := make([]byte, 61)
		for i := range block {
			block[i] = byte(src*61 + dst*17 + i)
		}
		return bytes.Repeat(block, size/len(block)+1+src)
	}
	for _, ranks := range []int{2, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			trs := newTCPGroup(t, ranks, 0)
			defer closeGroup(trs)
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r := range trs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([][]byte, ranks) // nothing to itself: the self plane never touches a socket
					for dst := range out {
						if dst != r {
							out[dst] = plane(r, dst)
						}
					}
					if r == ranks-1 {
						time.Sleep(200 * time.Millisecond)
					}
					in, err := trs[r].Exchange(out)
					if err != nil {
						errs[r] = err
						return
					}
					for src, got := range in {
						if src == r {
							continue
						}
						if want := plane(src, r); !bytes.Equal(got, want) {
							errs[r] = fmt.Errorf("rank %d got %d bytes from rank %d, not the %d it sent", r, len(got), src, len(want))
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				closeGroup(trs)
				t.Fatal("a round of large planes hung")
			}
			for r, err := range errs {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// TestTCPRoundTimeoutStalledPeer: with RoundTimeout set, a peer that never
// joins the round converts into a rank-attributed timeout error instead of
// an indefinite hang.
func TestTCPRoundTimeoutStalledPeer(t *testing.T) {
	trs := newTCPGroup(t, 2, 200*time.Millisecond)
	defer closeGroup(trs)
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Exchange(make([][]byte, 2)) // rank 1 never shows up
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exchange succeeded without the peer")
		}
		for _, frag := range []string{"rank 0", "rank 1", "timed out after 200ms"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error %q missing %q", err, frag)
			}
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Exchange ignored RoundTimeout")
	}
}

// TestTCPOwnCloseUnblocksParkedExchange: graceful shutdown — Close on a rank
// whose Exchange is parked waiting for peers must unblock it with ErrClosed.
func TestTCPOwnCloseUnblocksParkedExchange(t *testing.T) {
	trs := newTCPGroup(t, 2, 0)
	defer closeGroup(trs)
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Exchange(make([][]byte, 2))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	trs[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Exchange stayed parked after its own Close")
	}
}

// TestTCPExchangeAfterClose: a closed transport refuses new rounds.
func TestTCPExchangeAfterClose(t *testing.T) {
	trs := newTCPGroup(t, 2, 0)
	closeGroup(trs)
	if _, err := trs[0].Exchange(make([][]byte, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestTCPRoundsCounter: the transport counts its exchange rounds (the chaos
// and invariant layers key fault schedules and error attribution off it).
func TestTCPRoundsCounter(t *testing.T) {
	trs := newTCPGroup(t, 2, 0)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if _, err := c.Exchange(make([][]byte, 2)); err != nil {
				return err
			}
		}
		return nil
	})
	for r, tr := range trs {
		if got := tr.(*tcpTransport).Rounds(); got != 3 {
			t.Errorf("rank %d: rounds = %d, want 3", r, got)
		}
	}
}

func TestNewTCPSingleRankNeedsNoNetwork(t *testing.T) {
	tr, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{"unused:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	in, err := tr.Exchange([][]byte{[]byte("self")})
	if err != nil {
		t.Fatal(err)
	}
	if string(in[0]) != "self" {
		t.Errorf("self plane = %q", in[0])
	}
	_ = fmt.Sprintf("%v", in)
}

// TestNewTCPLateRankConnects: the ports LocalAddrs hands out stay bound
// until NewTCP adopts them, so no other socket can take one in between; rank
// 1 starts its setup 100 ms after rank 0, whose dial waits in the backlog of
// rank 1's held port, and both still come up and run a round.
func TestNewTCPLateRankConnects(t *testing.T) {
	addrs, err := LocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	if ln, err := net.Listen("tcp", addrs[0]); err == nil {
		ln.Close()
		t.Fatalf("%s could be bound again between LocalAddrs and NewTCP", addrs[0])
	}
	trs := make([]Transport, 2)
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(r) * 100 * time.Millisecond)
			tr, err := NewTCP(TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second})
			if err != nil {
				t.Errorf("NewTCP rank %d: %v", r, err)
				return
			}
			trs[r] = tr
		}()
	}
	wg.Wait()
	if t.Failed() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
		t.FailNow()
	}
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		_, err := c.Exchange(make([][]byte, 2))
		return err
	})
}
