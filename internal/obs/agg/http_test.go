package agg

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/obs"
	"parlouvain/internal/wire"
)

func newTestServer(t *testing.T, col *Collector) *httptest.Server {
	t.Helper()
	mux := obs.NewDebugMux(obs.NewRegistry(), nil)
	col.Attach(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func iterBatch(rank uint32, seq uint64, iter int32) []byte {
	return encodeBatch(&wire.TelemetryBatch{
		Rank: rank, Seq: seq,
		Events: []wire.EventRec{{
			Name: "iteration", Rank: int32(rank), Iter: iter, TS: int64(iter),
			FieldKeys: []string{"moved"}, FieldVals: []float64{float64(iter)},
		}},
	})
}

// readSSEEvent consumes one "data: {...}" frame (skipping blank keepalive
// lines) and unmarshals its payload.
func readSSEEvent(t *testing.T, br *bufio.Reader) obs.Event {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE frame: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("malformed SSE line %q", line)
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", data, err)
		}
		return e
	}
}

// TestSSEStream: /events replays the backlog, then follows live ingests.
func TestSSEStream(t *testing.T) {
	col := NewCollector()
	col.Ingest(iterBatch(0, 1, 1)) // backlog before the client connects
	srv := newTestServer(t, col)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	if e := readSSEEvent(t, br); e.Rank != 0 || e.Iter != 1 {
		t.Fatalf("backlog event = %+v", e)
	}
	col.Ingest(iterBatch(1, 1, 2)) // live event while the stream is open
	if e := readSSEEvent(t, br); e.Rank != 1 || e.Iter != 2 || e.Fields["moved"] != 2 {
		t.Fatalf("live event = %+v", e)
	}
}

// TestEventsJSONL: the newline-delimited variant carries the same feed.
func TestEventsJSONL(t *testing.T) {
	col := NewCollector()
	col.Ingest(iterBatch(0, 1, 1))
	col.Ingest(iterBatch(2, 1, 7))
	srv := newTestServer(t, col)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events.jsonl", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	var got []obs.Event
	for i := 0; i < 2; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		got = append(got, e)
	}
	if got[0].Rank != 0 || got[1].Rank != 2 || got[1].Iter != 7 {
		t.Fatalf("events = %+v", got)
	}
}

// TestStreamEndsWhenFeedCloses: once the transport group shuts down, open
// streams finish their response instead of hanging forever.
func TestStreamEndsWhenFeedCloses(t *testing.T) {
	trs := comm.NewMemGroup(1)
	conn, err := comm.New(trs[0]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	go col.Run(conn)
	srv := newTestServer(t, col)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events.jsonl", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	trs[0].Close()
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
}

// pipeWriter is a ResponseWriter whose writes block until the test reads
// them from the other end of the pipe: a client exactly as slow as the test.
type pipeWriter struct {
	*io.PipeWriter
	header http.Header
}

func (p pipeWriter) Header() http.Header { return p.header }
func (pipeWriter) WriteHeader(int)       {}
func (pipeWriter) Flush()                {}

// TestSlowReaderGetsEveryEvent: a client that reads nothing while events
// are ingested still receives every one of them, in ingest order, and then
// the end of the stream once the feed closes.
func TestSlowReaderGetsEveryEvent(t *testing.T) {
	trs := comm.NewMemGroup(1)
	conn, err := comm.New(trs[0]).OpenTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	go col.Run(conn)
	mux := http.NewServeMux()
	col.Attach(mux)

	pr, pw := io.Pipe()
	defer pr.Close() // unblocks the handler if the test fails early
	go func() {
		mux.ServeHTTP(pipeWriter{pw, http.Header{}}, httptest.NewRequest("GET", "/events", nil))
		pw.Close()
	}()
	const n = 1000 // the handler is blocked on its first write throughout
	for i := 1; i <= n; i++ {
		col.Ingest(iterBatch(0, uint64(i), int32(i)))
	}
	trs[0].Close()

	br := bufio.NewReader(pr)
	for i := 1; i <= n; i++ {
		if e := readSSEEvent(t, br); e.Iter != i {
			t.Fatalf("event %d has iter %d: the stream skipped or reordered events", i, e.Iter)
		}
	}
	if rest, err := io.ReadAll(br); err != nil || strings.TrimSpace(string(rest)) != "" {
		t.Errorf("after the last event: %q, %v; want the end of the stream", rest, err)
	}
}

// TestMetricsClusterEndpoint: the Prometheus endpoint serves the merged
// view alongside the existing single-rank /metrics.
func TestMetricsClusterEndpoint(t *testing.T) {
	col := NewCollector()
	col.Ingest(encodeBatch(&wire.TelemetryBatch{
		Rank: 0, Seq: 1,
		Metrics: []wire.MetricRec{{Name: "comm_bytes_total", Kind: wire.MetricCounter, Value: 42}},
	}))
	srv := newTestServer(t, col)
	resp, err := http.Get(srv.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"cluster_ranks_reporting 1\n",
		`comm_bytes_total{rank="0"} 42` + "\n",
		`comm_bytes_total{agg="sum"} 42` + "\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}
