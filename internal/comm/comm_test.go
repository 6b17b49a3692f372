package comm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"parlouvain/internal/obs"
)

// runGroup runs body on every rank of trs through RunGroup and fails the test
// on the lowest failing rank's error.
func runGroup(t *testing.T, trs []Transport, body func(c *Comm) error) {
	t.Helper()
	if err := RunGroup(context.Background(), trs, func(_ int, c *Comm) error { return body(c) }); err != nil {
		t.Fatal(err)
	}
}

// groups returns both transport flavors for a given size.
func groups(t *testing.T, size int) map[string][]Transport {
	t.Helper()
	out := map[string][]Transport{"mem": NewMemGroup(size)}
	addrs, err := LocalAddrs(size)
	if err != nil {
		t.Fatalf("LocalAddrs: %v", err)
	}
	trs := make([]Transport, size)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewTCP(TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			trs[r] = tr
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("NewTCP: %v", firstErr)
	}
	out["tcp"] = trs
	return out
}

func TestExchangeDeliversCorrectPlanes(t *testing.T) {
	for name, trs := range groups(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer closeGroup(trs)
			runGroup(t, trs, func(c *Comm) error {
				const rounds = 5
				for round := 0; round < rounds; round++ {
					out := make([][]byte, c.Size())
					for dst := range out {
						out[dst] = []byte(fmt.Sprintf("r%d->%d@%d", c.Rank(), dst, round))
					}
					in, err := c.Exchange(out)
					if err != nil {
						return err
					}
					for src, b := range in {
						want := fmt.Sprintf("r%d->%d@%d", src, c.Rank(), round)
						if string(b) != want {
							return fmt.Errorf("round %d: got %q from %d, want %q", round, b, src, want)
						}
					}
				}
				return nil
			})
		})
	}
}

func TestExchangeEmptyPlanes(t *testing.T) {
	for name, trs := range groups(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer closeGroup(trs)
			runGroup(t, trs, func(c *Comm) error {
				in, err := c.Exchange(make([][]byte, c.Size()))
				if err != nil {
					return err
				}
				for src, b := range in {
					if len(b) != 0 {
						return fmt.Errorf("nonempty plane from %d: %v", src, b)
					}
				}
				return nil
			})
		})
	}
}

func TestExchangeWrongPlaneCount(t *testing.T) {
	trs := NewMemGroup(2)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		_, err := c.Exchange(make([][]byte, 5))
		if err == nil {
			return errors.New("expected error for wrong plane count")
		}
		return nil
	})
}

func TestAllReduceFloat64(t *testing.T) {
	for name, trs := range groups(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer closeGroup(trs)
			runGroup(t, trs, func(c *Comm) error {
				x := float64(c.Rank() + 1) // 1,2,3,4
				sum, err := c.AllReduceFloat64(x, OpSum)
				if err != nil {
					return err
				}
				if sum != 10 {
					return fmt.Errorf("sum = %v, want 10", sum)
				}
				min, err := c.AllReduceFloat64(x, OpMin)
				if err != nil {
					return err
				}
				if min != 1 {
					return fmt.Errorf("min = %v, want 1", min)
				}
				max, err := c.AllReduceFloat64(x, OpMax)
				if err != nil {
					return err
				}
				if max != 4 {
					return fmt.Errorf("max = %v, want 4", max)
				}
				return nil
			})
		})
	}
}

func TestAllReduceUint64AndBool(t *testing.T) {
	trs := NewMemGroup(3)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		sum, err := c.AllReduceUint64(uint64(c.Rank()), OpSum)
		if err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("sum = %d, want 3", sum)
		}
		allTrue, err := c.AllReduceAnd(c.Rank() != 1)
		if err != nil {
			return err
		}
		if allTrue {
			return errors.New("AND with one false should be false")
		}
		allTrue, err = c.AllReduceAnd(true)
		if err != nil {
			return err
		}
		if !allTrue {
			return errors.New("AND of all true should be true")
		}
		return nil
	})
}

func TestAllReduceSlices(t *testing.T) {
	trs := NewMemGroup(4)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		fs := []float64{float64(c.Rank()), 1}
		if err := c.AllReduceFloat64Slice(fs); err != nil {
			return err
		}
		if fs[0] != 6 || fs[1] != 4 {
			return fmt.Errorf("float slice = %v, want [6 4]", fs)
		}
		us := []uint64{uint64(c.Rank()), 2}
		if err := c.AllReduceUint64Slice(us); err != nil {
			return err
		}
		if us[0] != 6 || us[1] != 8 {
			return fmt.Errorf("uint slice = %v, want [6 8]", us)
		}
		return nil
	})
}

func TestAllGatherUint32(t *testing.T) {
	for name, trs := range groups(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer closeGroup(trs)
			runGroup(t, trs, func(c *Comm) error {
				mine := []uint32{uint32(c.Rank() * 10), uint32(c.Rank()*10 + 1)}
				all, err := c.AllGatherUint32(mine)
				if err != nil {
					return err
				}
				for src, xs := range all {
					if len(xs) != 2 || xs[0] != uint32(src*10) || xs[1] != uint32(src*10+1) {
						return fmt.Errorf("gathered %v from %d", xs, src)
					}
				}
				return nil
			})
		})
	}
}

// emptyRound is a barrier: an exchange of empty planes returns only once
// every rank has entered it.
func emptyRound(c *Comm) error {
	_, err := c.Exchange(make([][]byte, c.Size()))
	return err
}

func TestBarrierAndCounters(t *testing.T) {
	trs := NewMemGroup(2)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		if err := emptyRound(c); err != nil {
			return err
		}
		if c.Rounds() != 1 {
			return fmt.Errorf("rounds = %d, want 1", c.Rounds())
		}
		out := make([][]byte, 2)
		out[0] = []byte("abc")
		out[1] = []byte("de")
		if _, err := c.Exchange(out); err != nil {
			return err
		}
		if c.BytesSent() != 5 {
			return fmt.Errorf("bytes sent = %d, want 5", c.BytesSent())
		}
		return nil
	})
}

// TestCountersConcurrentWithExchange reads the traffic counters and the
// metric registry from outside the rank goroutines while exchanges are in
// flight — the access pattern of louvaind's /metrics endpoint. Run under
// -race: the pre-obs plain-uint64 fields failed this.
func TestCountersConcurrentWithExchange(t *testing.T) {
	trs := NewMemGroup(2)
	defer closeGroup(trs)
	reg := obs.NewRegistry()
	comms := make([]*Comm, 2)
	for i, tr := range trs {
		comms[i] = New(tr)
		comms[i].Instrument(reg)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var total uint64
			for _, c := range comms {
				total += c.BytesSent() + c.BytesReceived() + c.Rounds()
			}
			_ = total
			var sb strings.Builder
			reg.WritePrometheus(&sb)
		}
	}()
	var wg sync.WaitGroup
	for i := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			payload := make([]byte, 128)
			for round := 0; round < 200; round++ {
				out := [][]byte{payload, payload}
				if _, err := c.Exchange(out); err != nil {
					t.Errorf("exchange: %v", err)
					return
				}
			}
		}(comms[i])
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	var sent uint64
	for _, c := range comms {
		if c.Rounds() != 200 {
			t.Errorf("rounds = %d, want 200", c.Rounds())
		}
		sent += c.BytesSent()
	}
	if want := uint64(2 * 200 * 2 * 128); sent != want {
		t.Errorf("bytes sent = %d, want %d", sent, want)
	}
	if got := reg.Counter("comm_bytes_sent_total").Value(); got != sent {
		t.Errorf("registry counter = %d, want %d", got, sent)
	}
	if got := reg.Histogram("comm_exchange_seconds", nil).Snapshot().Count; got != 400 {
		t.Errorf("latency histogram count = %d, want 400", got)
	}
}

func TestSingleRankGroup(t *testing.T) {
	for name, trs := range groups(t, 1) {
		t.Run(name, func(t *testing.T) {
			defer closeGroup(trs)
			runGroup(t, trs, func(c *Comm) error {
				in, err := c.Exchange([][]byte{[]byte("self")})
				if err != nil {
					return err
				}
				if string(in[0]) != "self" {
					return fmt.Errorf("self plane = %q", in[0])
				}
				sum, err := c.AllReduceFloat64(7, OpSum)
				if err != nil || sum != 7 {
					return fmt.Errorf("allreduce on 1 rank: %v %v", sum, err)
				}
				return nil
			})
		})
	}
}

func TestMemCloseUnblocksPeers(t *testing.T) {
	trs := NewMemGroup(2)
	done := make(chan error, 1)
	go func() {
		// Rank 0 exchanges; rank 1 never does. Close must unblock.
		_, err := trs[0].Exchange(make([][]byte, 2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	trs[1].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange hung after peer Close")
	}
}

func TestTCPPeerDeathSurfacesError(t *testing.T) {
	addrs, err := LocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]Transport, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewTCP(TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second})
			if err != nil {
				t.Errorf("NewTCP rank %d: %v", r, err)
				return
			}
			trs[r] = tr
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Kill rank 1; rank 0's next exchange must error, not hang.
	trs[1].Close()
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Exchange(make([][]byte, 2))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Exchange succeeded against dead peer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Exchange hung against dead peer")
	}
	trs[0].Close()
}

func TestNewTCPBadRank(t *testing.T) {
	if _, err := NewTCP(TCPConfig{Rank: 5, Addrs: []string{"x"}}); err == nil {
		t.Error("expected error for out-of-range rank")
	}
}

// TestAllReduceAndSingleRound pins the collective cost of the boolean
// reduction: one Exchange round per call, one byte per destination.
func TestAllReduceAndSingleRound(t *testing.T) {
	trs := NewMemGroup(3)
	defer closeGroup(trs)
	runGroup(t, trs, func(c *Comm) error {
		before := c.Rounds()
		if _, err := c.AllReduceAnd(c.Rank() == 0); err != nil {
			return err
		}
		if got := c.Rounds() - before; got != 1 {
			return fmt.Errorf("AllReduceAnd used %d rounds, want 1", got)
		}
		// The payload is one byte per destination, not a widened integer.
		sent := c.BytesSent()
		if want := uint64(c.Size()); sent != want {
			return fmt.Errorf("bytes sent = %d, want %d", sent, want)
		}
		return nil
	})
}

func TestExchangeAfterCloseFails(t *testing.T) {
	trs := NewMemGroup(2)
	trs[0].Close()
	if _, err := trs[1].Exchange(make([][]byte, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}
