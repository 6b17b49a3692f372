package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"parlouvain/internal/algo"
	"parlouvain/internal/gencli"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
)

// blockEngine is a registry engine that emits one "block_started" event and
// then parks until its context is cancelled — the deterministic target for
// the cancel and SSE tests (a real engine may finish before the test can
// fire the cancel).
type blockEngine struct{}

func (blockEngine) Name() string { return "test-block" }

func (blockEngine) Info() algo.Info {
	return algo.Info{Name: "test-block", Description: "test-only engine that blocks until cancelled"}
}

func (blockEngine) Detect(ctx context.Context, g algo.Graph, opt algo.Options) (*algo.Result, error) {
	if opt.Recorder != nil {
		opt.Recorder.Emit(obs.Event{Name: "block_started", Rank: g.Comm.Rank(), TS: opt.Recorder.Now()})
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// panicEngine is a registry engine whose rank 0 panics on a worker thread —
// the target for the panic boundary test.
type panicEngine struct{}

func (panicEngine) Name() string { return "test-panic" }

func (panicEngine) Info() algo.Info {
	return algo.Info{Name: "test-panic", Description: "test-only engine that panics"}
}

func (panicEngine) Detect(ctx context.Context, g algo.Graph, opt algo.Options) (*algo.Result, error) {
	par.For(2, 2, func(t, _, _ int) {
		if t == 1 && g.Comm.Rank() == 0 {
			panic("test-panic gives up")
		}
	})
	_, err := g.Comm.Exchange(make([][]byte, g.Comm.Size()))
	return nil, err
}

func init() {
	algo.Register(blockEngine{})
	algo.Register(panicEngine{})
}

// newTestServer builds a store plus an httptest server carrying its API and
// arranges shutdown at test end.
func newTestServer(t *testing.T, cfg Config) (*Store, *httptest.Server) {
	t.Helper()
	s := NewStore(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, srv
}

// submit POSTs a spec and decodes the response, asserting the status code.
func submit(t *testing.T, srv *httptest.Server, spec Spec, wantCode int) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /jobs: got %d want %d (%s)", resp.StatusCode, wantCode, raw)
	}
	var st Status
	if wantCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode submit response %q: %v", raw, err)
		}
	}
	return st
}

// getStatus GETs /jobs/{id}.
func getStatus(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls the job until pred holds or the deadline passes.
func waitFor(t *testing.T, srv *httptest.Server, id string, what string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, srv, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach %q within 30s (state %s, error %q)", id, what, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitState(t *testing.T, srv *httptest.Server, id string, want State) Status {
	t.Helper()
	return waitFor(t, srv, id, string(want), func(st Status) bool {
		if st.State.terminal() && st.State != want {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		return st.State == want
	})
}

func cancelJob(t *testing.T, srv *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: %d", id, resp.StatusCode)
	}
}

// TestLifecycle walks one job through submit → poll → done → result in both
// JSON and text form, and checks the job appears in the listing and its
// labeled metrics endpoint.
func TestLifecycle(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	st := submit(t, srv, Spec{
		Gen: "lfr:n=500,mu=0.3,seed=7", Algo: "louvain", Ranks: 2, Check: true,
	}, http.StatusAccepted)
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit returned %+v", st)
	}

	final := waitState(t, srv, st.ID, StateDone)
	if final.Q <= 0 || final.Communities <= 0 || final.Vertices != 500 || final.Levels == 0 {
		t.Errorf("done status looks wrong: %+v", final)
	}
	if final.Started == "" || final.Finished == "" || final.RunMS <= 0 {
		t.Errorf("done status missing timings: %+v", final)
	}

	// JSON result.
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var view resultView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(view.Assignment) != 500 {
		t.Fatalf("result: code %d, %d assignments", resp.StatusCode, len(view.Assignment))
	}
	if len(view.LevelQ) == 0 || view.Q != final.Q {
		t.Errorf("result quality trajectory missing: %+v", view.LevelQ)
	}

	// Text result.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(string(text), "\n"); lines != 500 {
		t.Errorf("text partition has %d lines, want 500", lines)
	}

	// Listing.
	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("listing: %+v", list.Jobs)
	}

	// Per-job metrics carry the job label.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `job="`+st.ID+`"`) {
		t.Errorf("per-job metrics lack the job label:\n%s", metrics)
	}

	// Service instruments counted the job.
	if got := s.Metrics().Counter("serve_jobs_done_total").Value(); got != 1 {
		t.Errorf("serve_jobs_done_total = %d, want 1", got)
	}
}

// TestResultBeforeDone asserts /result answers 409 while the job runs.
func TestResultBeforeDone(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, st.ID, StateRunning)
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of a running job: %d, want 409", resp.StatusCode)
	}
	cancelJob(t, srv, st.ID)
	waitState(t, srv, st.ID, StateCancelled)
}

// TestSubmitValidation exercises the 400 class: the unknown-algo error must
// enumerate the registry so clients can self-correct.
func TestSubmitValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}

	code, body := post(`{"gen":"ring:k=4,s=5","algo":"nope"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algo: %d, want 400", code)
	}
	for _, name := range algo.Names() {
		if !strings.Contains(body, name) {
			t.Errorf("unknown-algo error does not enumerate %q: %s", name, body)
		}
	}

	for _, tc := range []struct{ name, body string }{
		{"no source", `{"algo":"louvain"}`},
		{"two sources", `{"gen":"ring:k=4,s=5","edges":"0 1\n"}`},
		{"bad transport", `{"gen":"ring:k=4,s=5","transport":"carrier-pigeon"}`},
		{"removed field", `{"gen":"ring:k=4,s=5","storage":"csr"}`},
		{"ranks out of range", `{"gen":"ring:k=4,s=5","ranks":1000}`},
		{"unknown field", `{"gen":"ring:k=4,s=5","frobnicate":true}`},
		{"malformed json", `{`},
	} {
		if code, body := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", tc.name, code, body)
		}
	}
}

// TestBadSourceFailsJob asserts materialization errors (deferred to the
// worker) surface as a failed job, not a hung one.
func TestBadSourceFailsJob(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	st := submit(t, srv, Spec{Path: "/nonexistent/graph.txt"}, http.StatusAccepted)
	final := waitState(t, srv, st.ID, StateFailed)
	if final.Error == "" {
		t.Error("failed job carries no error")
	}
}

// TestPathMustBeRegularFile submits a path that is a named pipe with no
// writer — opening it would block — and one that is a character device, to a
// store with one worker: each job fails promptly with an error naming the
// file type, and neither holds the worker.
func TestPathMustBeRegularFile(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "graph.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() {
		// Should an open of the pipe be blocked, a reader-writer open frees
		// it before the store shuts down.
		if f, err := os.OpenFile(fifo, os.O_RDWR, 0); err == nil {
			f.Close()
		}
	})
	for path, kind := range map[string]string{fifo: "a named pipe", "/dev/null": "a character device"} {
		start := time.Now()
		st := submit(t, srv, Spec{Path: path}, http.StatusAccepted)
		final := waitState(t, srv, st.ID, StateFailed)
		if !strings.Contains(final.Error, kind) {
			t.Errorf("%s: error %q does not name %s", path, final.Error, kind)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: the job took %v to fail", path, d)
		}
	}
}

// TestCancelMidRun cancels a running job and asserts the engine actually
// stops: the blocking engine only returns when its context fires, so the
// transition to cancelled proves the DELETE reached the engine's context.
func TestCancelMidRun(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := submit(t, srv, Spec{Edges: "0 1\n1 2\n", Algo: "test-block", Ranks: 2}, http.StatusAccepted)
	waitFor(t, srv, st.ID, "running with engine started", func(s Status) bool {
		return s.State == StateRunning && s.Events >= 3 // queued, running, block_started
	})
	cancelJob(t, srv, st.ID)
	final := waitState(t, srv, st.ID, StateCancelled)
	if final.Error == "" {
		t.Error("cancelled job carries no error")
	}
}

// TestCancelRealEngine cancels a par-louvain run mid-flight (after its first
// telemetry event) and asserts the job reaches a terminal state promptly —
// the engines poll their context at level/iteration boundaries.
func TestCancelRealEngine(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := submit(t, srv, Spec{Gen: "lfr:n=8000,mu=0.3,seed=7", Algo: "louvain", Ranks: 2}, http.StatusAccepted)
	waitFor(t, srv, st.ID, "first engine event", func(s Status) bool {
		return s.Events >= 3 || s.State.terminal()
	})
	cancelJob(t, srv, st.ID)
	final := waitFor(t, srv, st.ID, "terminal", func(s Status) bool { return s.State.terminal() })
	// The run may legitimately have finished before the cancel landed; what
	// must never happen is failed (lost cancellation shows up as an
	// ErrClosed detection failure) or a hang (caught by waitFor's deadline).
	if final.State == StateFailed {
		t.Errorf("cancelled run failed instead: %q", final.Error)
	}
}

// TestCancelQueued cancels a job before any worker picks it up.
func TestCancelQueued(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	blocker := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, blocker.ID, StateRunning)
	queued := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	cancelJob(t, srv, queued.ID)
	if st := getStatus(t, srv, queued.ID); st.State != StateCancelled {
		t.Errorf("queued job after cancel: %s", st.State)
	}
	cancelJob(t, srv, blocker.ID)
	waitState(t, srv, blocker.ID, StateCancelled)
}

// TestQueueOverflow fills the worker pool and the queue, then asserts the
// next submission is rejected with 429 and the rejection is counted.
func TestQueueOverflow(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning) // worker busy, queue empty
	queued := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"edges":"0 1\n","algo":"test-block"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "queue full") {
		t.Errorf("429 body does not explain: %s", raw)
	}
	if got := s.Metrics().Counter("serve_jobs_rejected_total").Value(); got != 1 {
		t.Errorf("serve_jobs_rejected_total = %d, want 1", got)
	}

	cancelJob(t, srv, queued.ID)
	cancelJob(t, srv, running.ID)
	waitState(t, srv, running.ID, StateCancelled)
}

// TestSSEBacklogThenLive opens the event stream of a running job, asserts
// the recorded backlog is replayed first, then triggers live events by
// cancelling and asserts the stream delivers them and ends with the
// terminal done frame.
func TestSSEBacklogThenLive(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitFor(t, srv, st.ID, "backlog recorded", func(s Status) bool { return s.Events >= 3 })

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type frame struct {
		event string // "" for plain data frames
		data  string
	}
	frames := make(chan frame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				frames <- frame{event: event, data: strings.TrimPrefix(line, "data: ")}
				event = ""
			}
		}
	}()

	nextName := func() (frame, string) {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			var e obs.Event
			if f.event == "" {
				if err := json.Unmarshal([]byte(f.data), &e); err != nil {
					t.Fatalf("bad event payload %q: %v", f.data, err)
				}
			}
			return f, e.Name
		case <-time.After(30 * time.Second):
			t.Fatal("no frame within 30s")
		}
		panic("unreachable")
	}

	// Backlog, in emission order.
	for _, want := range []string{"job_queued", "job_running", "block_started"} {
		if _, name := nextName(); name != want {
			t.Fatalf("backlog event %q, want %q", name, want)
		}
	}

	// Live phase: the cancel emits job_cancelled, then the terminal frame.
	cancelJob(t, srv, st.ID)
	sawCancelled, sawDone := false, false
	for !sawDone {
		f, name := nextName()
		switch {
		case f.event == "done":
			sawDone = true
			var final Status
			if err := json.Unmarshal([]byte(f.data), &final); err != nil {
				t.Fatalf("bad done payload %q: %v", f.data, err)
			}
			if final.State != StateCancelled {
				t.Errorf("done frame state %s, want cancelled", final.State)
			}
		case name == "job_cancelled":
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Error("live phase never delivered job_cancelled")
	}
	if _, ok := <-frames; ok {
		t.Error("stream did not close after the done frame")
	}
}

// TestSSEAfterDone asserts a stream opened on a finished job replays the
// whole backlog and terminates immediately with the done frame.
func TestSSEAfterDone(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	st := submit(t, srv, Spec{Gen: "ring:k=4,s=5", Algo: "seq"}, http.StatusAccepted)
	waitState(t, srv, st.ID, StateDone)

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) // terminates because the job is done
	resp.Body.Close()
	for _, want := range []string{"job_queued", "job_running", "job_done", "event: done"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("finished-job stream lacks %q:\n%s", want, body)
		}
	}
}

// TestSSEReplayMatchesLive streams a par-louvain job's events live, from
// before it starts to its done frame, then opens the stream again on the
// finished job: the replay must be the live stream byte for byte, the float
// fields of every iteration and level event included. A blocking job holds
// the one worker until the live stream is open.
func TestSSEReplayMatchesLive(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	blocker := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, blocker.ID, StateRunning)
	st := submit(t, srv, Spec{Gen: "lfr:n=600,mu=0.3,seed=3", Algo: "par-louvain", Ranks: 2}, http.StatusAccepted)
	open := func() *bufio.Reader {
		t.Helper()
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return bufio.NewReader(resp.Body)
	}
	live := open()
	first, err := live.ReadBytes('\n') // the job_queued frame: the stream is open
	if err != nil {
		t.Fatal(err)
	}
	cancelJob(t, srv, blocker.ID)
	rest, err := io.ReadAll(live) // ends after the done frame
	if err != nil {
		t.Fatal(err)
	}
	streamed := append(first, rest...)
	replay, err := io.ReadAll(open())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"job_queued"`, `"name":"job_running"`, `"name":"iteration"`, `"name":"level"`, `"name":"job_done"`, "event: done"} {
		if !strings.Contains(string(streamed), want) {
			t.Errorf("live stream lacks %s:\n%s", want, streamed)
		}
	}
	if !bytes.Equal(streamed, replay) {
		t.Errorf("replay of the finished job differs from its live stream:\nlive:   %s\nreplay: %s", streamed, replay)
	}
}

// TestConcurrentSubmitters hammers the API from many goroutines — mixed
// engines, sizes and rank counts — and asserts every accepted job reaches
// done with a sane result. Run under -race this doubles as the data-race
// sweep over store, recorder and registry. The saturated input is the
// closed-loop backpressure smoke: one worker, held busy until every client has
// had its first answer, and a queue of two, so most submissions are refused
// with 429 and succeed only because the clients back off and retry.
func TestConcurrentSubmitters(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		saturated bool
	}{
		{"roomy", Config{Workers: 4, QueueDepth: 64}, false},
		{"saturated", Config{Workers: 1, QueueDepth: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentSubmitters(t, tc.cfg, tc.saturated) })
	}
}

func concurrentSubmitters(t *testing.T, cfg Config, saturated bool) {
	s, srv := newTestServer(t, cfg)
	specs := []Spec{
		{Gen: "ring:k=4,s=5", Algo: "seq"},
		{Gen: "lfr:n=300,mu=0.2,seed=3", Algo: "louvain", Ranks: 2},
		{Gen: "sbm:n=200,comms=4,seed=5", Algo: "lpa"},
		{Edges: "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n", Algo: "leiden"},
	}
	const submitters = 6
	const jobsEach = 4

	var blocker Status
	if saturated {
		blocker = submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
		waitState(t, srv, blocker.ID, StateRunning)
	}

	var wg, answered sync.WaitGroup
	answered.Add(submitters)
	ids := make(chan string, submitters*jobsEach)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			first := true
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < jobsEach; {
				spec := specs[rng.Intn(len(specs))]
				body, _ := json.Marshal(spec)
				resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
				if first {
					first = false
					answered.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: code %d err %v", resp.StatusCode, err)
					return
				}
				ids <- st.ID
				k++
				// Interleave reads with the writes.
				if lr, err := http.Get(srv.URL + "/jobs"); err == nil {
					io.Copy(io.Discard, lr.Body)
					lr.Body.Close()
				}
			}
		}(int64(i + 1))
	}
	answered.Wait()
	if saturated {
		cancelJob(t, srv, blocker.ID)
	}
	wg.Wait()
	close(ids)

	count := 0
	for id := range ids {
		final := waitState(t, srv, id, StateDone)
		if final.Vertices == 0 || final.Communities == 0 {
			t.Errorf("job %s: empty result %+v", id, final)
		}
		count++
	}
	if count != submitters*jobsEach {
		t.Errorf("completed %d jobs, want %d", count, submitters*jobsEach)
	}
	if rejected := s.Metrics().Counter("serve_jobs_rejected_total").Value(); (rejected > 0) != saturated {
		t.Errorf("serve_jobs_rejected_total = %d with saturated=%v", rejected, saturated)
	}
}

// TestShutdown asserts Shutdown cancels queued jobs, refuses new work, and
// returns once the workers exit.
func TestShutdown(t *testing.T) {
	s := NewStore(Config{Workers: 1, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	running := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning)
	queued := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)

	// Immediate-deadline shutdown: queued jobs are cancelled, the running
	// job's context is fired as soon as the grace expires.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not return")
	}

	if st := getStatus(t, srv, queued.ID); st.State != StateCancelled {
		t.Errorf("queued job after shutdown: %s", st.State)
	}
	if st := getStatus(t, srv, running.ID); st.State != StateCancelled {
		t.Errorf("running job after shutdown: %s", st.State)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"edges":"0 1\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestNotFound covers the 404 class across the id-scoped endpoints.
func TestNotFound(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/events", "/jobs/nope/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestFinishedJobsForgotten runs 40 jobs through a store that keeps 8
// finished ones: the listing holds the newest 8, the early ids answer 404
// saying why, and the eviction counter has counted the other 32.
func TestFinishedJobsForgotten(t *testing.T) {
	s := NewStore(Config{Workers: 2, QueueDepth: 4})
	s.keepFinished = 8
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	var ids []string
	for i := 0; i < 40; i++ {
		st := submit(t, srv, Spec{Gen: "ring:k=4,s=5", Algo: "seq"}, http.StatusAccepted)
		waitState(t, srv, st.ID, StateDone)
		ids = append(ids, st.ID)
	}

	resp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []Status }
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, st := range list.Jobs {
		if st.State != StateDone {
			t.Errorf("job %s listed as %s", st.ID, st.State)
		}
		listed = append(listed, st.ID)
	}
	if fmt.Sprint(listed) != fmt.Sprint(ids[32:]) {
		t.Errorf("GET /jobs lists %v, want the newest 8: %v", listed, ids[32:])
	}

	for _, id := range []string{ids[0], ids[31]} {
		resp, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "finished jobs beyond the newest 8 are not kept") {
			t.Errorf("GET /jobs/%s: %d %s, want a 404 saying finished jobs beyond the newest 8 are not kept", id, resp.StatusCode, body)
		}
	}
	if n := s.Metrics().Counter("serve_jobs_evicted_total").Value(); n != 32 {
		t.Errorf("serve_jobs_evicted_total = %d, want 32", n)
	}
}

// TestJobIDsSequential pins the id scheme the load generator keys on.
func TestJobIDsSequential(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	a, err := s.Submit(Spec{Gen: "ring:k=4,s=5"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Spec{Gen: "ring:k=4,s=5"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "j001" || b.ID() != "j002" {
		t.Errorf("ids %s, %s; want j001, j002", a.ID(), b.ID())
	}
	if fmt.Sprintf("%s", a.State()) == "" {
		t.Error("state stringer empty")
	}
}

// TestStatusOmitsUpload submits a 100 KB inline edge list: the submit reply,
// the job's status and the listing, while the job waits and once it is done,
// every SSE frame and the status part of the result stay under 2 KB, report
// the upload's size, and the job reaches the Q a direct run of the same edges
// reaches.
func TestStatusOmitsUpload(t *testing.T) {
	el, _, err := gencli.Generate("lfr:n=2000,mu=0.3,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := graph.WriteText(&text, el); err != nil {
		t.Fatal(err)
	}
	upload := text.String()
	if len(upload) < 100_000 {
		t.Fatalf("upload is %d bytes, want at least 100 KB", len(upload))
	}
	want, err := algo.Run(context.Background(), "seq-louvain", el, 0, algo.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const limit = 2048
	_, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	small := func(what string, body []byte) {
		t.Helper()
		if len(body) >= limit {
			t.Errorf("%s is %d bytes, want under %d", what, len(body), limit)
		}
	}

	blocker := submit(t, srv, Spec{Edges: "0 1\n", Algo: "test-block"}, http.StatusAccepted)
	waitState(t, srv, blocker.ID, StateRunning)
	body, err := json.Marshal(Spec{Edges: upload, Algo: "seq-louvain"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	small("submit reply", reply)
	var st Status
	if err := json.Unmarshal(reply, &st); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	if st.EdgesBytes != len(upload) {
		t.Errorf("edges_bytes = %d, want %d", st.EdgesBytes, len(upload))
	}
	small("queued job's status", get("/jobs/"+st.ID))
	small("listing with a queued upload", get("/jobs"))

	cancelJob(t, srv, blocker.ID)
	final := waitState(t, srv, st.ID, StateDone)
	if final.Q != want.Q || final.EdgesBytes != len(upload) {
		t.Errorf("done: Q %v, edges_bytes %d; want Q %v of a direct run, %d bytes", final.Q, final.EdgesBytes, want.Q, len(upload))
	}
	small("done job's status", get("/jobs/"+st.ID))
	small("listing", get("/jobs"))
	for _, frame := range strings.Split(string(get("/jobs/"+st.ID+"/events")), "\n\n") {
		small("SSE frame", []byte(frame))
	}
	var view resultView
	if err := json.Unmarshal(get("/jobs/"+st.ID+"/result"), &view); err != nil {
		t.Fatal(err)
	}
	status, err := json.Marshal(view.Status)
	if err != nil {
		t.Fatal(err)
	}
	small("result's status", status)
}

// TestJobPanicFailsOnlyThatJob: an engine that panics — on a worker thread of
// one rank while its peer waits in a collective — fails its job with the panic
// text, its event stream ends with the stack, the process and the worker
// live on to finish the next job, and serve_job_panics_total counts one.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	st := submit(t, srv, Spec{Edges: "0 1\n1 2\n", Algo: "test-panic", Ranks: 2}, http.StatusAccepted)
	final := waitState(t, srv, st.ID, StateFailed)
	if !strings.HasPrefix(final.Error, "rank 0: panic: test-panic gives up\n") {
		t.Errorf("failed job's error %q, want rank 0's panic", final.Error)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if i := strings.Index(string(body), "event: done"); i < 0 || !strings.Contains(string(body[i:]), "panicEngine.Detect") {
		t.Errorf("event stream does not end with the panic's stack:\n%s", body)
	}
	next := submit(t, srv, Spec{Gen: "ring:k=4,s=5", Algo: "seq"}, http.StatusAccepted)
	waitState(t, srv, next.ID, StateDone)
	if got := s.mPanics.Value(); got != 1 {
		t.Errorf("serve_job_panics_total = %d, want 1", got)
	}
}
