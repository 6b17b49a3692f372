package comm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// Chaos is a fault-injection wrapper around any Transport. It perturbs the
// timing and delivery path of every exchange round — injected delays,
// straggler ranks, transient send-side errors and simulated connection
// resets (both retried with jittered exponential backoff), and duplicate
// delivery attempts — without ever changing the bytes a successful round
// delivers. A run that completes under chaos is therefore bit-identical to
// the fault-free run; a run whose injected faults exceed the retry budget
// fails fast with a rank- and round-attributed error and tears the inner
// transport down so that no peer is left parked in Exchange.
//
// All randomness is drawn from a splitmix64 stream seeded with
// (Seed, rank), so a fault schedule is reproducible: the same seed yields
// the same delays, the same retry storms and the same duplicate rounds.

// ErrInjected tags errors produced by exhausting a Chaos retry budget.
var ErrInjected = errors.New("comm: injected fault")

// ChaosConfig parameterizes a Chaos wrapper. The zero value injects nothing.
type ChaosConfig struct {
	// Seed is the base of the deterministic fault schedule; it is mixed
	// with the rank so every rank draws an independent stream.
	Seed uint64

	// DelayProb is the per-round probability of an injected delay,
	// uniform in (0, MaxDelay]. MaxDelay defaults to 2ms.
	DelayProb float64
	MaxDelay  time.Duration

	// ErrProb and ResetProb are per-attempt probabilities of a transient
	// send-side error and of a simulated connection reset. Both are
	// recovered by backing off and retrying the attempt; they differ only
	// in accounting. A round whose consecutive faulted attempts exceed
	// MaxRetries fails permanently.
	ErrProb   float64
	ResetProb float64

	// MaxRetries bounds the faulted attempts absorbed per round before
	// the wrapper gives up (default 4). RetryBackoff is the initial
	// backoff (default 200µs), doubled per attempt and jittered.
	MaxRetries   int
	RetryBackoff time.Duration

	// DupProb is the per-round probability of a duplicate delivery
	// attempt: the received round is materialized a second time, verified
	// against the original, and discarded — the at-least-once delivery
	// case a dedup layer must absorb.
	DupProb float64

	// SlowRank designates one straggler: when SlowDelay > 0, rank
	// SlowRank sleeps SlowDelay before every SlowEvery-th round
	// (SlowEvery defaults to 1, every round).
	SlowRank  int
	SlowDelay time.Duration
	SlowEvery int

	// Metrics, when non-nil, registers live fault counters:
	// chaos_delays_total, chaos_retries_total, chaos_resets_total,
	// chaos_dup_deliveries_total, chaos_failures_total,
	// chaos_telemetry_drops_total, and the chaos_injected_delay_seconds /
	// chaos_retries_per_round histograms.
	Metrics *obs.Registry
}

// ChaosStats is a snapshot of the faults a wrapper has injected.
type ChaosStats struct {
	Rounds   uint64 // exchange rounds entered
	Delays   uint64 // injected delays (including straggler sleeps)
	Retries  uint64 // faulted attempts that were retried
	Resets   uint64 // the subset of retries accounted as connection resets
	Dups     uint64 // duplicate delivery attempts absorbed
	Failures uint64 // rounds abandoned after exhausting MaxRetries
	TelDrops uint64 // telemetry payloads dropped after exhausting retries
}

type chaosTransport struct {
	inner Transport
	cfg   ChaosConfig
	rank  int

	rngMu     sync.Mutex
	rng       chaosRNG // sequential schedule for the one-per-round fault sites
	seed0     uint64   // base state for the telemetry plane's keyed streams
	round     uint64
	slowEvery uint64
	maxDelay  time.Duration
	backoff0  time.Duration
	retries   int
	closed    atomic.Bool

	nRounds, nDelays, nRetries, nResets, nDups, nFailures, nTelDrops atomic.Uint64

	// Optional registry mirrors (nil when Metrics is unset).
	cDelays, cRetries, cResets, cDups, cFailures, cTelDrops *obs.Counter
	hDelay, hRetries                                        *obs.Histogram
}

// NewChaos wraps inner with the fault injector described by cfg. When inner
// carries a simulated clock (SimGroup), the wrapper forwards SimNow and
// WaitTurn so simulated runs stay drivable through the chaos layer.
func NewChaos(inner Transport, cfg ChaosConfig) Transport {
	t := &chaosTransport{
		inner:     inner,
		cfg:       cfg,
		rank:      inner.Rank(),
		slowEvery: 1,
		maxDelay:  cfg.MaxDelay,
		backoff0:  cfg.RetryBackoff,
		retries:   cfg.MaxRetries,
	}
	if cfg.SlowEvery > 0 {
		t.slowEvery = uint64(cfg.SlowEvery)
	}
	if t.maxDelay <= 0 {
		t.maxDelay = 2 * time.Millisecond
	}
	if t.backoff0 <= 0 {
		t.backoff0 = 200 * time.Microsecond
	}
	if t.retries <= 0 {
		t.retries = 4
	}
	// Mix the rank into the seed so ranks draw independent streams, and a
	// zero seed still injects a nontrivial schedule.
	t.seed0 = cfg.Seed ^ (uint64(t.rank)+1)*0x9E3779B97F4A7C15
	t.rng.state = t.seed0
	if reg := cfg.Metrics; reg != nil {
		t.cDelays = reg.Counter("chaos_delays_total")
		t.cRetries = reg.Counter("chaos_retries_total")
		t.cResets = reg.Counter("chaos_resets_total")
		t.cDups = reg.Counter("chaos_dup_deliveries_total")
		t.cFailures = reg.Counter("chaos_failures_total")
		t.cTelDrops = reg.Counter("chaos_telemetry_drops_total")
		t.hDelay = reg.Histogram("chaos_injected_delay_seconds", obs.LatencyBuckets)
		t.hRetries = reg.Histogram("chaos_retries_per_round", obs.CountBuckets)
	}
	if sc, ok := inner.(SimClock); ok {
		return &chaosSimTransport{chaosTransport: t, clock: sc}
	}
	return t
}

// ChaosStatsOf extracts the fault snapshot of a transport produced by
// NewChaos; ok is false for any other transport.
func ChaosStatsOf(tr Transport) (ChaosStats, bool) {
	switch t := tr.(type) {
	case *chaosTransport:
		return t.stats(), true
	case *chaosSimTransport:
		return t.stats(), true
	}
	return ChaosStats{}, false
}

func (t *chaosTransport) stats() ChaosStats {
	return ChaosStats{
		Rounds:   t.nRounds.Load(),
		Delays:   t.nDelays.Load(),
		Retries:  t.nRetries.Load(),
		Resets:   t.nResets.Load(),
		Dups:     t.nDups.Load(),
		Failures: t.nFailures.Load(),
		TelDrops: t.nTelDrops.Load(),
	}
}

func (t *chaosTransport) Rank() int { return t.inner.Rank() }
func (t *chaosTransport) Size() int { return t.inner.Size() }

func (t *chaosTransport) Close() error {
	t.closed.Store(true)
	return t.inner.Close()
}

func (t *chaosTransport) sleep(d time.Duration) {
	t.nDelays.Add(1)
	if t.cDelays != nil {
		t.cDelays.Inc()
	}
	if t.hDelay != nil {
		t.hDelay.Observe(d.Seconds())
	}
	time.Sleep(d)
}

// randFloat and randUint serialize draws from the sequential splitmix64
// stream. This stream serves the fault sites that execute exactly once per
// round on the rank's own goroutine (round-start delays, Exchange faults),
// so a fixed seed yields a fixed schedule.
func (t *chaosTransport) randFloat() float64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.float()
}

func (t *chaosTransport) randUint() uint64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.next()
}

// keyedRNG derives an independent splitmix64 stream for one payload.
// Telemetry sends draw faults from publisher goroutines concurrent with the
// round loop, so a shared sequential stream would make the schedule depend
// on goroutine interleaving; keying each payload's draws by (site, seq,
// peer, payload) keeps the fault multiset a pure function of the seed.
func (t *chaosTransport) keyedRNG(site, seq uint64, peer int, payload []byte) chaosRNG {
	// FNV-1a over the payload, then fold in the coordinates.
	h := uint64(14695981039346656037)
	for _, b := range payload {
		h = (h ^ uint64(b)) * 1099511628211
	}
	rng := chaosRNG{state: t.seed0 ^ h ^ site*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9 ^ (uint64(peer)+1)*0x94D049BB133111EB}
	rng.next() // scramble away any key structure
	return rng
}

// injectRoundStart applies the per-round timing faults: the designated
// straggler's stall and the random delay.
func (t *chaosTransport) injectRoundStart(round uint64) {
	if t.cfg.SlowDelay > 0 && t.cfg.SlowRank == t.rank && round%t.slowEvery == 0 {
		t.sleep(t.cfg.SlowDelay)
	}
	if t.cfg.DelayProb > 0 && t.randFloat() < t.cfg.DelayProb {
		t.sleep(time.Duration(1 + t.randUint()%uint64(t.maxDelay)))
	}
}

// injectSendFaults draws the transient-fault schedule for one round's send
// attempt from the sequential stream, retrying with jittered exponential
// backoff. Exhausting the budget tears the group down and returns an
// ErrInjected-tagged failure.
func (t *chaosTransport) injectSendFaults(round uint64) error {
	p := t.cfg.ErrProb + t.cfg.ResetProb
	if p <= 0 {
		return nil
	}
	backoff := t.backoff0
	attempts := 0
	for {
		draw := t.randFloat()
		if draw >= p {
			break
		}
		attempts++
		if draw < t.cfg.ResetProb {
			t.nResets.Add(1)
			if t.cResets != nil {
				t.cResets.Inc()
			}
		}
		if attempts > t.retries {
			t.nFailures.Add(1)
			if t.cFailures != nil {
				t.cFailures.Inc()
			}
			// Tear the group down so no peer stays parked in a
			// round this rank will never complete.
			t.Close()
			return fmt.Errorf("comm: chaos rank %d round %d: %d faulted attempts exceeded retry budget %d: %w",
				t.rank, round, attempts, t.retries, ErrInjected)
		}
		t.nRetries.Add(1)
		if t.cRetries != nil {
			t.cRetries.Inc()
		}
		jitter := time.Duration(t.randUint() % uint64(backoff/2+1))
		time.Sleep(backoff + jitter)
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
	if t.hRetries != nil && attempts > 0 {
		t.hRetries.Observe(float64(attempts))
	}
	return nil
}

func (t *chaosTransport) Exchange(out [][]byte) ([][]byte, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("comm: chaos rank %d: %w", t.rank, ErrClosed)
	}
	round := t.round
	t.round++
	t.nRounds.Add(1)

	t.injectRoundStart(round)
	// Transient faults on the send attempt, retried with jittered
	// exponential backoff. The inner exchange is only entered once the
	// attempt survives, so delivery stays exactly-once.
	if err := t.injectSendFaults(round); err != nil {
		return nil, err
	}

	in, err := t.inner.Exchange(out)
	if err != nil {
		if t.closed.Load() {
			return nil, fmt.Errorf("comm: chaos rank %d: %w", t.rank, ErrClosed)
		}
		return nil, fmt.Errorf("comm: chaos rank %d round %d: %w", t.rank, round, err)
	}

	// Duplicate delivery attempt: materialize the round a second time and
	// discard the copy, verifying it matches — the at-least-once path a
	// real redelivery would hit.
	if t.cfg.DupProb > 0 && t.randFloat() < t.cfg.DupProb {
		t.nDups.Add(1)
		if t.cDups != nil {
			t.cDups.Inc()
		}
		for src, plane := range in {
			dup := wire.GetPlane(len(plane))
			copy(dup, plane)
			same := bytes.Equal(dup, plane)
			wire.PutPlane(dup)
			if !same {
				t.Close()
				return nil, fmt.Errorf("comm: chaos rank %d round %d: duplicate delivery from rank %d diverged: %w",
					t.rank, round, src, ErrInjected)
			}
		}
	}
	return in, nil
}

// OpenTelemetry implements Telemeter with best-effort fault injection on
// the out-of-band path: injected delays and transient faults may drop a
// payload (counted, never fatal — the mesh must outlive a dead telemetry
// plane), and duplicate-delivery injection re-sends the payload so the
// collector's sequence dedup gets exercised. Draws come from a keyed stream
// (site 3): telemetry sends happen on publisher goroutines concurrent with
// the main round loop, so the sequential schedule of the collective fault
// sites must not observe them.
func (t *chaosTransport) OpenTelemetry() (TelemetryConn, error) {
	tm, ok := t.inner.(Telemeter)
	if !ok {
		return nil, ErrTelemetryUnsupported
	}
	inner, err := tm.OpenTelemetry()
	if err != nil {
		return nil, err
	}
	return &chaosTelConn{t: t, inner: inner}, nil
}

type chaosTelConn struct {
	t     *chaosTransport
	inner TelemetryConn
	seq   atomic.Uint64
}

func (c *chaosTelConn) Send(p []byte) error {
	t := c.t
	if t.closed.Load() {
		return fmt.Errorf("comm: chaos rank %d: %w", t.rank, ErrClosed)
	}
	rng := t.keyedRNG(3, c.seq.Add(1), 0, p)
	if t.cfg.DelayProb > 0 && rng.float() < t.cfg.DelayProb {
		t.sleep(time.Duration(1 + rng.next()%uint64(t.maxDelay)))
	}
	// Transient faults with the usual retry budget — but exhaustion drops
	// the payload instead of tearing the group down: monitoring loss is
	// acceptable, a deadlocked algorithm is not.
	if prob := t.cfg.ErrProb + t.cfg.ResetProb; prob > 0 {
		backoff := t.backoff0
		attempts := 0
		for {
			draw := rng.float()
			if draw >= prob {
				break
			}
			attempts++
			if draw < t.cfg.ResetProb {
				t.nResets.Add(1)
				if t.cResets != nil {
					t.cResets.Inc()
				}
			}
			if attempts > t.retries {
				t.nTelDrops.Add(1)
				if t.cTelDrops != nil {
					t.cTelDrops.Inc()
				}
				return ErrTelemetryDropped
			}
			t.nRetries.Add(1)
			if t.cRetries != nil {
				t.cRetries.Inc()
			}
			time.Sleep(backoff + time.Duration(rng.next()%uint64(backoff/2+1)))
			if backoff < 8*time.Millisecond {
				backoff *= 2
			}
		}
	}
	if err := c.inner.Send(p); err != nil {
		return err
	}
	if t.cfg.DupProb > 0 && rng.float() < t.cfg.DupProb {
		t.nDups.Add(1)
		if t.cDups != nil {
			t.cDups.Inc()
		}
		// At-least-once delivery: the duplicate carries identical bytes, so
		// the collector must dedup by (rank, seq), not count on
		// exactly-once transport semantics.
		_ = c.inner.Send(p)
	}
	return nil
}

func (c *chaosTelConn) Recv() <-chan []byte { return c.inner.Recv() }
func (c *chaosTelConn) Close() error        { return c.inner.Close() }

// chaosSimTransport augments the wrapper with the simulated-clock surface of
// its inner transport, so chaos-wrapped SimGroup members still expose SimNow
// and the WaitTurn scheduling protocol.
type chaosSimTransport struct {
	*chaosTransport
	clock SimClock
}

func (t *chaosSimTransport) SimNow() time.Duration { return t.clock.SimNow() }

func (t *chaosSimTransport) WaitTurn() error {
	if tw, ok := t.inner.(interface{ WaitTurn() error }); ok {
		return tw.WaitTurn()
	}
	return nil
}

// chaosRNG is a splitmix64 stream: tiny, well-mixed, and deterministic for a
// fixed seed, which makes every injected fault schedule reproducible.
type chaosRNG struct{ state uint64 }

func (r *chaosRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *chaosRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }
