package comm

import (
	"sync"
	"time"

	"parlouvain/internal/wire"
)

// CostModel parameterizes the BSP communication cost used by the simulated
// transport: an exchange round costs Alpha (latency) plus Beta per byte of
// the largest per-rank plane volume in the round (the bandwidth term of the
// classic α-β model).
type CostModel struct {
	Alpha         time.Duration // per-round latency
	BetaNsPerByte float64       // per-byte cost in nanoseconds
}

// DefaultCostModel approximates a commodity cluster interconnect:
// 5µs latency and 2 GB/s effective bandwidth (0.5 ns/byte).
func DefaultCostModel() CostModel {
	return CostModel{Alpha: 5 * time.Microsecond, BetaNsPerByte: 0.5}
}

// SimClock is implemented by transports that keep a simulated parallel
// clock (SimGroup). Callers may type-assert to read simulated timestamps.
type SimClock interface {
	// SimNow returns the simulated makespan accumulated so far,
	// including the running rank's in-progress compute segment.
	SimNow() time.Duration
}

// SimGroup creates a rank group whose transports execute the ranks
// *serialized* — exactly one rank computes at any moment — so the wall time
// of each compute segment between collectives measures that rank's own work
// honestly even on a single-core host. The group accumulates a simulated
// parallel makespan under the BSP cost model:
//
//	simTime = Σ_rounds [ max_r segment_r + Alpha + Beta·maxBytes_r ]
//
// Message delivery is identical to the live transports (same bytes, same
// per-source order), so algorithm results are bit-identical; only the clock
// is modeled.
//
// Protocol: every rank goroutine must call WaitTurn() on its transport
// before touching it (core.RunSimulated does this), and Close() when its
// body returns so the scheduler can hand the CPU onward.
func SimGroup(size int, model CostModel) []Transport {
	if size < 1 {
		size = 1
	}
	if model.Alpha == 0 && model.BetaNsPerByte == 0 {
		model = DefaultCostModel()
	}
	hub := &simHub{
		size:      size,
		model:     model,
		tel:       newTelHub(),
		resume:    make([]chan error, size),
		staged:    make([][][]byte, size),
		delivered: make([][][]byte, size),
		arrived:   make([]bool, size),
		blocked:   make([]bool, size),
		done:      make([]bool, size),
	}
	for r := 0; r < size; r++ {
		hub.resume[r] = make(chan error, 1)
		hub.staged[r] = make([][]byte, size)
		hub.delivered[r] = make([][]byte, size)
		if r != 0 {
			hub.blocked[r] = true // waits in WaitTurn until scheduled
		}
	}
	hub.running = 0
	hub.sliceStart = time.Now()
	trs := make([]Transport, size)
	for r := 0; r < size; r++ {
		trs[r] = &simTransport{hub: hub, rank: r}
	}
	return trs
}

type simHub struct {
	mu    sync.Mutex
	size  int
	model CostModel
	tel   *telHub // out-of-band telemetry queue (see telemetry.go)

	resume    []chan error
	staged    [][][]byte // staged[src][dst], this round's outgoing planes
	delivered [][][]byte // delivered[dst][src], last completed round

	arrived []bool // reached Exchange this round
	blocked []bool // waiting on resume
	done    []bool // rank body returned

	running    int
	sliceStart time.Time

	roundMaxSegment time.Duration
	simTime         time.Duration
	rounds          uint64
}

// simTransport is one rank's handle.
type simTransport struct {
	hub  *simHub
	rank int
}

func (t *simTransport) Rank() int { return t.rank }
func (t *simTransport) Size() int { return t.hub.size }

// WaitTurn blocks until the scheduler hands this rank the CPU for its first
// compute segment. Rank 0 starts immediately.
func (t *simTransport) WaitTurn() error {
	t.hub.mu.Lock()
	if t.rank == 0 && t.hub.running == 0 && !t.hub.arrived[0] {
		t.hub.mu.Unlock()
		return nil
	}
	ch := t.hub.resume[t.rank]
	t.hub.mu.Unlock()
	return <-ch
}

// SimNow implements SimClock.
func (t *simTransport) SimNow() time.Duration {
	t.hub.mu.Lock()
	defer t.hub.mu.Unlock()
	return t.hub.simTime + time.Since(t.hub.sliceStart)
}

// Rounds returns the number of completed exchange rounds.
func (t *simTransport) Rounds() uint64 {
	t.hub.mu.Lock()
	defer t.hub.mu.Unlock()
	return t.hub.rounds
}

func (t *simTransport) Exchange(out [][]byte) ([][]byte, error) {
	h := t.hub
	h.mu.Lock()
	if h.done[t.rank] {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	// End of this rank's compute segment.
	if seg := time.Since(h.sliceStart); seg > h.roundMaxSegment {
		h.roundMaxSegment = seg
	}
	h.arrived[t.rank] = true
	for dst := 0; dst < h.size; dst++ {
		var plane []byte
		if dst < len(out) && len(out[dst]) > 0 {
			plane = wire.GetPlane(len(out[dst]))
			copy(plane, out[dst])
		} else {
			plane = []byte{}
		}
		h.staged[t.rank][dst] = plane
	}
	h.blocked[t.rank] = true
	h.scheduleLocked()
	ch := h.resume[t.rank]
	h.mu.Unlock()

	if err := <-ch; err != nil {
		return nil, err
	}
	h.mu.Lock()
	in := wire.GetPlaneList(h.size)
	copy(in, h.delivered[t.rank])
	h.mu.Unlock()
	return in, nil
}

// Close marks the rank's body as finished and hands the CPU onward.
func (t *simTransport) Close() error {
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done[t.rank] {
		return nil
	}
	h.done[t.rank] = true
	allDone := true
	for _, d := range h.done {
		allDone = allDone && d
	}
	if allDone {
		h.tel.close()
	}
	if h.running == t.rank {
		if seg := time.Since(h.sliceStart); seg > h.roundMaxSegment {
			h.roundMaxSegment = seg
		}
		h.scheduleLocked()
	}
	return nil
}

// OpenTelemetry implements Telemeter. Telemetry flows outside the
// serialized-rank protocol: enqueueing is just a channel send, so a rank
// may push while another holds the simulated CPU, and the rank-0 collector
// goroutine drains whenever the Go scheduler runs it. The simulated clock
// charges nothing for telemetry — it is monitoring, not algorithm traffic.
func (t *simTransport) OpenTelemetry() (TelemetryConn, error) {
	h := t.hub
	h.mu.Lock()
	dead := h.done[t.rank]
	h.mu.Unlock()
	if dead {
		return nil, ErrClosed
	}
	return &telConn{hub: h.tel, recv: t.rank == 0}, nil
}

func (t *simTransport) telemetryDrops() uint64 { return t.hub.tel.Drops() }

// scheduleLocked hands the CPU to the next live rank that has not yet
// reached this round's exchange; when none remain it completes the round
// and starts the next one.
func (h *simHub) scheduleLocked() {
	for r := 0; r < h.size; r++ {
		if !h.arrived[r] && !h.done[r] {
			h.running = r
			h.sliceStart = time.Now()
			if h.blocked[r] {
				h.blocked[r] = false
				h.resume[r] <- nil
			}
			return
		}
	}
	// All live ranks arrived (dead ranks contribute empty planes).
	h.completeRoundLocked()
	// Start the next round with the first live rank.
	for r := 0; r < h.size; r++ {
		if !h.done[r] {
			h.running = r
			h.sliceStart = time.Now()
			if h.blocked[r] {
				h.blocked[r] = false
				h.resume[r] <- nil
			}
			return
		}
	}
}

// completeRoundLocked charges the round's BSP cost and publishes the planes.
func (h *simHub) completeRoundLocked() {
	anyLive := false
	var maxBytes int64
	for src := 0; src < h.size; src++ {
		if h.done[src] {
			continue
		}
		anyLive = true
		var b int64
		for dst := 0; dst < h.size; dst++ {
			b += int64(len(h.staged[src][dst]))
		}
		if b > maxBytes {
			maxBytes = b
		}
	}
	if !anyLive {
		return
	}
	h.simTime += h.roundMaxSegment + h.model.Alpha + time.Duration(float64(maxBytes)*h.model.BetaNsPerByte)*time.Nanosecond
	h.rounds++
	h.roundMaxSegment = 0
	for src := 0; src < h.size; src++ {
		for dst := 0; dst < h.size; dst++ {
			plane := h.staged[src][dst]
			if plane == nil {
				plane = []byte{} // rank died mid-round: empty plane
			}
			h.delivered[dst][src] = plane
			h.staged[src][dst] = nil
		}
	}
	for r := range h.arrived {
		h.arrived[r] = false
	}
}
