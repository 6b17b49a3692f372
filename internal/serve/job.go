// Package serve turns the in-process detection driver into a job-oriented
// service: clients submit a graph (inline edge list, server-side path, or
// generator spec) plus engine options, a bounded worker pool runs the jobs
// FIFO through the algo registry, and an HTTP JSON API — mounted on
// louvaind's debug mux — exposes submission, polling, results, cancellation
// and a live SSE event tail per job.
//
// Every job owns a private obs.Recorder and obs.Registry, so its telemetry
// stream and instruments are isolated from other jobs and from the server's
// own metrics; the per-job metrics endpoint re-exports the registry with a
// job="<id>" label so scrapes from many jobs stay distinguishable.
package serve

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"time"

	"parlouvain/internal/algo"
	"parlouvain/internal/gencli"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
)

// State is a job's lifecycle phase. Transitions are strictly forward:
// queued → running → (done | failed | cancelled), or queued → cancelled
// when the job is cancelled before a worker picks it up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transition can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the client-submitted job description (the POST /jobs body).
// Exactly one graph source — Gen, Path or Edges — must be set.
type Spec struct {
	// Gen is a generator spec ("lfr:n=2000,mu=0.3,seed=4", see gencli.Usage).
	Gen string `json:"gen,omitempty"`
	// Path is a server-side edge-list file (text or binary, see graph.LoadFile).
	Path string `json:"path,omitempty"`
	// Edges is an inline text edge list ("u v [w]" lines), the upload path.
	// A job keeps it only until its worker has read it, and a Status never
	// carries it: Status.EdgesBytes reports its size.
	Edges string `json:"edges,omitempty"`

	// Algo is the registry engine name; empty means "louvain" (the
	// distributed parallel engine).
	Algo string `json:"algo,omitempty"`
	// Ranks is the in-process rank-group size; 0 means 1.
	Ranks int `json:"ranks,omitempty"`
	// Transport selects the group transport: "mem" (default), "sim", "chaos".
	Transport string `json:"transport,omitempty"`
	// Threads is the per-rank worker count (parallel Louvain).
	Threads int `json:"threads,omitempty"`
	// Seed drives randomized sweep orders and generator defaults.
	Seed uint64 `json:"seed,omitempty"`
	// MaxLevels / MaxIter bound the engine's outer/inner loops; 0 = default.
	MaxLevels int `json:"max_levels,omitempty"`
	MaxIter   int `json:"max_iter,omitempty"`
	// Check runs the unified invariant checker after detection.
	Check bool `json:"check,omitempty"`
}

// maxGenSize bounds gencli.Size — vertices plus expected edges — of a
// submitted generator spec. A worker materializes the whole edge list (16 B
// a record) and graph.Build's scratch (up to 56 B a record) before any
// engine starts, and a spec is one JSON string, so without a bound a single
// request such as rmat:scale=30 asks one job for hundreds of GiB and takes
// the server down. 2^24 records keep a job near 1 GiB; R-MAT scale 19 and
// LFR n = 10^6 at k = 16 fit.
const maxGenSize = 1 << 24

// validate rejects specs that could never run, so submission errors come
// back synchronously as 400s instead of surfacing later as failed jobs.
func (sp *Spec) validate() error {
	sources := 0
	for _, s := range []string{sp.Gen, sp.Path, sp.Edges} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("serve: exactly one graph source (gen, path or edges) required, got %d", sources)
	}
	if sp.Algo == "" {
		sp.Algo = "louvain"
	}
	if _, err := algo.Get(sp.Algo); err != nil {
		return err
	}
	switch sp.Transport {
	case "", "mem", "sim", "chaos":
	default:
		return fmt.Errorf("serve: unknown transport %q (want mem, sim or chaos)", sp.Transport)
	}
	if sp.Ranks < 0 || sp.Ranks > 64 {
		return fmt.Errorf("serve: ranks %d out of range [0, 64]", sp.Ranks)
	}
	if sp.Gen != "" {
		size, err := gencli.Size(sp.Gen)
		if err != nil {
			return err
		}
		if !(size <= maxGenSize) { // NaN fails too
			return fmt.Errorf("serve: generator %q would make %.3g vertices and edges, over the %d a job may ask for", sp.Gen, size, maxGenSize)
		}
	}
	return nil
}

// materialize produces the edge list the job runs on. It is called by the
// worker, not at submission, so Submit stays O(1) regardless of graph size.
func (sp *Spec) materialize() (graph.EdgeList, error) {
	switch {
	case sp.Gen != "":
		el, _, err := gencli.Generate(sp.Gen)
		return el, err
	case sp.Path != "":
		// Only a regular file: opening a FIFO without a writer blocks, and a
		// device may never end. Either would hold one of the store's fixed
		// workers out of reach of cancel and Shutdown. (The CLIs, which
		// legitimately read /dev/stdin, go to LoadFile directly.)
		fi, err := os.Stat(sp.Path)
		if err != nil {
			return nil, err
		}
		if !fi.Mode().IsRegular() {
			return nil, fmt.Errorf("serve: %s is %s, not a regular file", sp.Path, fileType(fi.Mode()))
		}
		return graph.LoadFile(sp.Path)
	default:
		el, err := graph.ReadText(strings.NewReader(sp.Edges))
		if err != nil {
			return nil, err
		}
		if len(el) == 0 {
			return nil, fmt.Errorf("serve: inline edge list is empty")
		}
		return el, nil
	}
}

// fileType names the kind of file a non-regular mode is.
func fileType(m fs.FileMode) string {
	switch {
	case m&fs.ModeNamedPipe != 0:
		return "a named pipe"
	case m&fs.ModeCharDevice != 0:
		return "a character device"
	case m&fs.ModeDevice != 0:
		return "a block device"
	case m&fs.ModeSocket != 0:
		return "a socket"
	case m.IsDir():
		return "a directory"
	}
	return "of mode " + m.Type().String()
}

// algoOptions converts the spec into driver options wired to the job's
// private telemetry plane.
func (sp *Spec) algoOptions(rec *obs.Recorder, reg *obs.Registry) algo.Options {
	return algo.Options{
		Ranks:           sp.Ranks,
		Transport:       sp.Transport,
		Threads:         sp.Threads,
		Seed:            sp.Seed,
		MaxLevels:       sp.MaxLevels,
		MaxIter:         sp.MaxIter,
		CheckInvariants: sp.Check,
		Recorder:        rec,
		Metrics:         reg,
	}
}

// Job is one submitted detection run. All mutable fields are guarded by mu;
// doneCh is closed exactly once when the job reaches a terminal state.
type Job struct {
	id         string
	spec       Spec // Edges cleared, under mu, once the worker has read it
	edgesBytes int  // len(spec.Edges) at submission
	rec        *obs.Recorder
	reg        *obs.Registry

	mu       sync.Mutex
	state    State
	err      string
	res      *algo.Result
	cancel   context.CancelFunc // set while running
	created  time.Time
	started  time.Time
	finished time.Time
	doneCh   chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted description; an inline edge list is gone from it
// once the job has read it.
func (j *Job) Spec() Spec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// Recorder returns the job's private telemetry recorder (the SSE source).
func (j *Job) Recorder() *obs.Recorder { return j.rec }

// Metrics returns the job's private instrument registry.
func (j *Job) Metrics() *obs.Registry { return j.reg }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the detection outcome; ok is false until the job is done.
func (j *Job) Result() (*algo.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.state == StateDone
}

// Status is the JSON view of a job served by GET /jobs and GET /jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Spec is the submitted description without its inline edge list, so a
	// status stays small whatever was uploaded; EdgesBytes is that list's
	// size in bytes.
	Spec       Spec   `json:"spec"`
	EdgesBytes int    `json:"edges_bytes,omitempty"`
	Error      string `json:"error,omitempty"`
	// Created/Started/Finished are RFC 3339 timestamps; empty when the
	// phase has not been reached.
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// QueueWaitMS and RunMS are derived durations in milliseconds.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	// Events is the number of telemetry events recorded so far.
	Events int `json:"events"`
	// Q and Communities summarize the result once the job is done.
	Q           float64 `json:"q,omitempty"`
	Communities int     `json:"communities,omitempty"`
	Vertices    int     `json:"vertices,omitempty"`
	Edges       int64   `json:"edges,omitempty"`
	Levels      int     `json:"levels,omitempty"`
}

// Snapshot returns the job's current Status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		State:      j.state,
		Spec:       j.spec,
		EdgesBytes: j.edgesBytes,
		Error:      j.err,
		Created:    j.created.Format(time.RFC3339Nano),
		Events:     j.rec.Len(),
	}
	st.Spec.Edges = ""
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339Nano)
		st.QueueWaitMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339Nano)
		end := j.finished
		ref := j.started
		if ref.IsZero() { // cancelled while queued
			ref = end
		}
		st.RunMS = float64(end.Sub(ref)) / float64(time.Millisecond)
	}
	if j.state == StateDone && j.res != nil {
		st.Q = j.res.Q
		st.Communities = j.res.Communities()
		st.Vertices = j.res.NumVertices
		st.Edges = j.res.NumEdges
		st.Levels = len(j.res.Levels)
	}
	return st
}

// emitState appends a synthetic lifecycle event ("job_queued",
// "job_running", ...) to the job's recorder so SSE tails see state changes
// interleaved with engine telemetry even for runs too small to emit much.
func (j *Job) emitState(s State) {
	j.rec.Emit(obs.Event{Name: "job_" + string(s), TS: j.rec.Now()})
}

// finishLocked moves j, whose mu the caller holds, to the terminal state s
// with error text errText. The job_<state> event is recorded before Done
// closes, so an event stream that ends on Done carries it.
func (j *Job) finishLocked(s State, errText string) {
	j.state = s
	j.err = errText
	j.finished = time.Now()
	j.emitState(s)
	close(j.doneCh)
}
