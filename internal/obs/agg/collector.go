package agg

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"parlouvain/internal/comm"
	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

// CollectorStats is a point-in-time view of the collector's bookkeeping.
type CollectorStats struct {
	// Batches counts accepted batches; Dups batches discarded because their
	// sequence number did not advance (duplicate delivery); Lost sequence
	// gaps (batches dropped in flight); DecodeErrors undecodable payloads.
	Batches, Dups, Lost, DecodeErrors uint64
	// Events is the merged event count.
	Events uint64
	// Ranks lists the ranks that have reported at least once; Finals those
	// whose last accepted batch was marked Final.
	Ranks  []int
	Finals []int
}

// Collector merges telemetry batches from every rank into one cluster view:
// the latest metric snapshot per rank, a merged event feed, and derived
// rollups. It is driven either by Run (draining a TelemetryConn feed) or by
// Ingest directly.
type Collector struct {
	mu      sync.Mutex
	lastSeq map[int]uint64
	metrics map[int][]wire.MetricRec
	finals  map[int]bool
	events  obs.Recorder // merged feed, in ingest order

	batches, dups, lost, decodeErrs uint64

	done      chan struct{}
	closeOnce sync.Once
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		lastSeq: map[int]uint64{},
		metrics: map[int][]wire.MetricRec{},
		finals:  map[int]bool{},
		done:    make(chan struct{}),
	}
}

// Run drains conn's receive feed until it closes (the transport group shut
// down). It blocks; callers run it in a goroutine and wait on Done.
func (c *Collector) Run(conn comm.TelemetryConn) {
	defer c.closeOnce.Do(func() { close(c.done) })
	ch := conn.Recv()
	if ch == nil {
		return
	}
	for payload := range ch {
		c.Ingest(payload)
	}
}

// Done is closed when Run's feed has drained; live event streams finish
// then instead of holding their connections open forever.
func (c *Collector) Done() <-chan struct{} { return c.done }

// Ingest decodes and merges one batch payload. Batches whose per-rank
// sequence number does not advance are discarded, which turns the channel's
// at-least-once delivery into exactly-once event merging.
func (c *Collector) Ingest(payload []byte) {
	batch, err := wire.NewReader(payload).TelemetryBatch()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.decodeErrs++
		return
	}
	rank := int(batch.Rank)
	last, seen := c.lastSeq[rank]
	if seen && batch.Seq <= last {
		c.dups++
		return
	}
	switch {
	case seen && batch.Seq > last+1:
		c.lost += batch.Seq - last - 1
	case !seen && batch.Seq > 1:
		c.lost += batch.Seq - 1
	}
	c.lastSeq[rank] = batch.Seq
	c.batches++
	c.metrics[rank] = batch.Metrics
	c.finals[rank] = batch.Final
	for _, r := range batch.Events {
		c.events.Emit(recToEvent(r))
	}
}

// Events returns a copy of the merged feed sorted by (TS, Rank).
func (c *Collector) Events() []obs.Event {
	return c.events.Events()
}

// Stats snapshots the collector's bookkeeping.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CollectorStats{
		Batches:      c.batches,
		Dups:         c.dups,
		Lost:         c.lost,
		DecodeErrors: c.decodeErrs,
		Events:       uint64(c.events.Len()),
		Ranks:        c.ranksLocked(),
	}
	for r, f := range c.finals {
		if f {
			st.Finals = append(st.Finals, r)
		}
	}
	sort.Ints(st.Finals)
	return st
}

func (c *Collector) ranksLocked() []int {
	ranks := make([]int, 0, len(c.lastSeq))
	for r := range c.lastSeq {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// WriteClusterPrometheus renders the cluster view in the Prometheus text
// exposition format: every metric with per-rank {rank="N"} series plus
// {agg="min"|"max"|"sum"} rollups, collector self-metrics, and the
// per-level cluster_phase_imbalance gauge (max over ranks of the phase's
// time divided by the mean — 1.0 is a perfectly balanced phase).
func (c *Collector) WriteClusterPrometheus(w io.Writer) error {
	c.mu.Lock()
	ranks := c.ranksLocked()
	perRank := make(map[int][]wire.MetricRec, len(c.metrics))
	for r, ms := range c.metrics {
		perRank[r] = ms // snapshots are replaced wholesale on ingest, never mutated
	}
	events, _ := c.events.EventsSince(0)
	batches, dups, lost, decodeErrs := c.batches, c.dups, c.lost, c.decodeErrs
	c.mu.Unlock()

	var sb strings.Builder
	self := []struct {
		name, kind string
		value      uint64
	}{
		{"cluster_ranks_reporting", "gauge", uint64(len(ranks))},
		{"cluster_batches_total", "counter", batches},
		{"cluster_dup_batches_total", "counter", dups},
		{"cluster_lost_batches_total", "counter", lost},
		{"cluster_decode_errors_total", "counter", decodeErrs},
		{"cluster_events_total", "counter", uint64(len(events))},
	}
	for _, m := range self {
		fmt.Fprintf(&sb, "# TYPE %s %s\n%s %d\n", m.name, m.kind, m.name, m.value)
	}

	// Union of metric names across ranks; a name keeps the kind of the
	// first rank reporting it, and snapshots of a conflicting kind (which
	// only a skewed deploy could produce) are skipped for that name.
	kinds := map[string]uint8{}
	var names []string
	for _, r := range ranks {
		for _, m := range perRank[r] {
			if _, ok := kinds[m.Name]; !ok {
				kinds[m.Name] = m.Kind
				names = append(names, m.Name)
			}
		}
	}
	sort.Strings(names)

	for _, name := range names {
		n := obs.SanitizeMetricName(name)
		kind := kinds[name]
		switch kind {
		case wire.MetricCounter, wire.MetricGauge:
			typ := "counter"
			if kind == wire.MetricGauge {
				typ = "gauge"
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", n, typ)
			var vals []float64
			for _, r := range ranks {
				if m, ok := findRec(perRank[r], name, kind); ok {
					fmt.Fprintf(&sb, "%s{rank=\"%d\"} %s\n", n, r, fmtFloat(m.Value))
					vals = append(vals, m.Value)
				}
			}
			if len(vals) > 0 {
				min, max, sum := vals[0], vals[0], 0.0
				for _, v := range vals {
					if v < min {
						min = v
					}
					if v > max {
						max = v
					}
					sum += v
				}
				fmt.Fprintf(&sb, "%s{agg=\"min\"} %s\n", n, fmtFloat(min))
				fmt.Fprintf(&sb, "%s{agg=\"max\"} %s\n", n, fmtFloat(max))
				fmt.Fprintf(&sb, "%s{agg=\"sum\"} %s\n", n, fmtFloat(sum))
			}
		case wire.MetricHistogram:
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", n)
			var agg *wire.MetricRec
			aggOK := true
			for _, r := range ranks {
				m, ok := findRec(perRank[r], name, kind)
				if !ok {
					continue
				}
				writeHistogram(&sb, n, fmt.Sprintf("rank=\"%d\"", r), &m)
				switch {
				case agg == nil:
					cp := m
					cp.Buckets = append([]uint64(nil), m.Buckets...)
					agg = &cp
				case boundsEqual(agg.Bounds, m.Bounds) && len(agg.Buckets) == len(m.Buckets):
					for i, b := range m.Buckets {
						agg.Buckets[i] += b
					}
					agg.Count += m.Count
					agg.Sum += m.Sum
				default:
					aggOK = false // mismatched bucket layouts cannot be summed
				}
			}
			if agg != nil && aggOK {
				writeHistogram(&sb, n, `agg="sum"`, agg)
			}
		}
	}

	rep := obs.BuildReport(events)
	if len(rep.Levels) > 0 {
		sb.WriteString("# TYPE cluster_phase_imbalance gauge\n")
		for _, lv := range rep.Levels {
			for _, ph := range lv.Phases {
				fmt.Fprintf(&sb, "cluster_phase_imbalance{level=\"%d\",phase=\"%s\"} %s\n",
					lv.Level, obs.EscapeLabelValue(ph.Name), fmtFloat(ph.Imbalance))
			}
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

func findRec(ms []wire.MetricRec, name string, kind uint8) (wire.MetricRec, bool) {
	for _, m := range ms {
		if m.Name == name && m.Kind == kind {
			return m, true
		}
	}
	return wire.MetricRec{}, false
}

// writeHistogram renders one labelled histogram series; bucket counts on
// the wire are non-cumulative and are accumulated here per the exposition
// format.
func writeHistogram(sb *strings.Builder, name, label string, m *wire.MetricRec) {
	var cum uint64
	for i, b := range m.Buckets {
		cum += b
		le := "+Inf"
		if i < len(m.Bounds) {
			le = fmtFloat(m.Bounds[i])
		}
		fmt.Fprintf(sb, "%s_bucket{%s,le=\"%s\"} %d\n", name, label, le, cum)
	}
	fmt.Fprintf(sb, "%s_sum{%s} %s\n", name, label, fmtFloat(m.Sum))
	fmt.Fprintf(sb, "%s_count{%s} %d\n", name, label, m.Count)
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
