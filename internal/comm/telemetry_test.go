package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// drainTelemetry collects payloads from rank 0's feed until want arrive or
// the timeout passes.
func drainTelemetry(t *testing.T, ch <-chan []byte, want int, timeout time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	deadline := time.After(timeout)
	for len(got) < want {
		select {
		case p, ok := <-ch:
			if !ok {
				return got
			}
			got = append(got, p)
		case <-deadline:
			t.Fatalf("telemetry feed delivered %d of %d payloads before timeout", len(got), want)
		}
	}
	return got
}

// TestTelemetryDelivery: every rank's payloads arrive at rank 0, on both
// live transports, without any collective round in flight.
func TestTelemetryDelivery(t *testing.T) {
	const size = 4
	for name, trs := range groups(t, size) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(trs)
			conn0, err := New(trs[0]).OpenTelemetry()
			if err != nil {
				t.Fatalf("rank 0 OpenTelemetry: %v", err)
			}
			if conn0.Recv() == nil {
				t.Fatal("rank 0 telemetry conn has no receive side")
			}

			var wg sync.WaitGroup
			for r := 0; r < size; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					conn := conn0
					if r != 0 {
						var err error
						conn, err = New(trs[r]).OpenTelemetry()
						if err != nil {
							t.Errorf("rank %d OpenTelemetry: %v", r, err)
							return
						}
						if conn.Recv() != nil {
							t.Errorf("rank %d telemetry conn has a receive side", r)
						}
						defer conn.Close()
					}
					for i := 0; i < 3; i++ {
						if err := conn.Send([]byte(fmt.Sprintf("r%d-%d", r, i))); err != nil {
							t.Errorf("rank %d send %d: %v", r, i, err)
						}
					}
				}(r)
			}

			got := drainTelemetry(t, conn0.Recv(), 3*size, 10*time.Second)
			wg.Wait()
			counts := map[string]int{}
			for _, p := range got {
				counts[string(p)]++
			}
			for r := 0; r < size; r++ {
				for i := 0; i < 3; i++ {
					key := fmt.Sprintf("r%d-%d", r, i)
					if counts[key] != 1 {
						t.Errorf("payload %q delivered %d times", key, counts[key])
					}
				}
			}
		})
	}
}

// TestTelemetryConcurrentWithExchange: the out-of-band path must flow while
// the group is mid-collective, and never perturb delivered plane bytes.
func TestTelemetryConcurrentWithExchange(t *testing.T) {
	for name, trs := range groups(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(trs)
			conn0, err := New(trs[0]).OpenTelemetry()
			if err != nil {
				t.Fatal(err)
			}
			const want = 3 * 20
			recvDone := make(chan int)
			allIn := make(chan struct{})
			go func() {
				n := 0
				for range conn0.Recv() {
					if n++; n == want {
						close(allIn)
					}
				}
				recvDone <- n
			}()

			runGroup(t, trs, func(c *Comm) error {
				conn := conn0
				if c.Rank() != 0 {
					var err error
					if conn, err = c.OpenTelemetry(); err != nil {
						return err
					}
					defer conn.Close()
				}
				for round := 0; round < 20; round++ {
					if err := conn.Send([]byte{byte(c.Rank()), byte(round)}); err != nil {
						return fmt.Errorf("rank %d round %d telemetry: %w", c.Rank(), round, err)
					}
					out := make([][]byte, c.Size())
					for dst := range out {
						out[dst] = []byte{byte(c.Rank()), byte(dst), byte(round)}
					}
					in, err := c.Exchange(out)
					if err != nil {
						return err
					}
					for src, plane := range in {
						if len(plane) != 3 || plane[0] != byte(src) || plane[1] != byte(c.Rank()) || plane[2] != byte(round) {
							return fmt.Errorf("rank %d round %d: bad plane from %d: %v", c.Rank(), round, src, plane)
						}
					}
				}
				return nil
			})
			// Over TCP a Send returns once the frame is written to the socket;
			// rank 0's pump delivers it some time later. Closing the group
			// before the pump has caught up closes the hub under it and the
			// tail of the feed is lost, so wait for the payloads first.
			select {
			case <-allIn:
			case <-time.After(10 * time.Second):
				t.Error("telemetry payloads still missing 10 s after the last Send returned")
			}
			closeAll(trs) // closes the feed so the drain goroutine finishes
			if n := <-recvDone; n != want {
				t.Errorf("rank 0 received %d telemetry payloads, want %d", n, want)
			}
		})
	}
}

// TestTelemetrySimTransport: the serialized simulation exposes the same
// out-of-band surface.
func TestTelemetrySimTransport(t *testing.T) {
	trs := SimGroup(2, CostModel{})
	if kind := New(trs[0]).TransportKind(); kind != "sim" {
		t.Errorf("TransportKind = %q, want sim", kind)
	}
	conn0, err := New(trs[0]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := trs[r]
			if tw, ok := tr.(interface{ WaitTurn() error }); ok {
				if err := tw.WaitTurn(); err != nil {
					t.Errorf("rank %d WaitTurn: %v", r, err)
					return
				}
			}
			conn := conn0
			if r != 0 {
				var err error
				if conn, err = New(tr).OpenTelemetry(); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
			}
			if err := conn.Send([]byte{byte(r)}); err != nil {
				t.Errorf("rank %d send: %v", r, err)
			}
			tr.Close()
		}(r)
	}
	got := drainTelemetry(t, conn0.Recv(), 2, 10*time.Second)
	wg.Wait()
	seen := map[byte]bool{}
	for _, p := range got {
		seen[p[0]] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("payload sources = %v, want both ranks", seen)
	}
}

func TestTransportKind(t *testing.T) {
	mem := NewMemGroup(1)
	defer closeAll(mem)
	if k := New(mem[0]).TransportKind(); k != "mem" {
		t.Errorf("mem kind = %q", k)
	}
	tcp, err := NewTCP(TCPConfig{Rank: 0, Addrs: []string{"unused:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if k := New(tcp).TransportKind(); k != "tcp" {
		t.Errorf("tcp kind = %q", k)
	}
	chaos := NewChaos(NewMemGroup(1)[0], ChaosConfig{})
	defer chaos.Close()
	if k := New(chaos).TransportKind(); k != "mem" {
		t.Errorf("chaos-over-mem kind = %q", k)
	}
}

// TestTelemetryDropOnFull: a collector that never drains cannot block
// senders; overflow drops are counted.
func TestTelemetryDropOnFull(t *testing.T) {
	trs := NewMemGroup(2)
	defer closeAll(trs)
	conn, err := New(trs[1]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	var dropped int
	for i := 0; i < telQueueDepth+10; i++ {
		if err := conn.Send([]byte{1}); errors.Is(err, ErrTelemetryDropped) {
			dropped++
		} else if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
	if n, ok := TelemetryDrops(trs[1]); !ok || n != 10 {
		t.Errorf("TelemetryDrops = %d,%v", n, ok)
	}
}

// TestTelemetryChaosDupAndDrop: chaos may duplicate or drop payloads but
// never corrupts them or tears the group down, and the drop is reported as
// ErrTelemetryDropped.
func TestTelemetryChaosDupAndDrop(t *testing.T) {
	inner := NewMemGroup(2)
	trs := []Transport{
		NewChaos(inner[0], ChaosConfig{Seed: 7}),
		NewChaos(inner[1], ChaosConfig{Seed: 7, DupProb: 1.0}),
	}
	defer closeAll(trs)
	conn0, err := New(trs[0]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	conn1, err := New(trs[1]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn1.Send([]byte("dup-me")); err != nil {
		t.Fatalf("send under DupProb=1: %v", err)
	}
	got := drainTelemetry(t, conn0.Recv(), 2, 5*time.Second)
	for _, p := range got {
		if string(p) != "dup-me" {
			t.Errorf("payload = %q, want duplicate of original", p)
		}
	}
	st, _ := ChaosStatsOf(trs[1])
	if st.Dups == 0 {
		t.Error("duplicate send not counted")
	}

	// ErrProb=1 exhausts every retry budget: the payload drops, the group
	// survives, and the regular Exchange path still works afterwards
	// (chaos Exchange below would fail too at ErrProb=1, so only the
	// telemetry conn is chaos-wrapped).
	dropTr := NewChaos(inner[1], ChaosConfig{Seed: 3, ErrProb: 1.0, MaxRetries: 2, RetryBackoff: time.Microsecond})
	dconn, err := New(dropTr).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if err := dconn.Send([]byte("doomed")); !errors.Is(err, ErrTelemetryDropped) {
		t.Fatalf("send under ErrProb=1 = %v, want ErrTelemetryDropped", err)
	}
	st, _ = ChaosStatsOf(dropTr)
	if st.TelDrops != 1 {
		t.Errorf("TelDrops = %d, want 1", st.TelDrops)
	}
	// The group must not have been torn down by the telemetry failure.
	runGroup(t, inner, func(c *Comm) error {
		_, err := c.Exchange(make([][]byte, 2))
		return err
	})
}
