package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parlouvain/internal/algo"
	"parlouvain/internal/core"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
)

// Submission failure classes, mapped to HTTP statuses by the API layer.
var (
	// ErrQueueFull rejects a submission when the FIFO queue is at capacity
	// (429 Too Many Requests — the client should back off and retry).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed rejects submissions after Shutdown has begun (503).
	ErrClosed = errors.New("serve: store closed")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
)

// Config parameterizes a Store. The zero value is usable.
type Config struct {
	// Workers is the size of the worker pool — the number of jobs that run
	// concurrently; 0 means 2.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a
	// submission beyond it fails with ErrQueueFull. 0 means 16.
	QueueDepth int
	// Metrics receives the service-level instruments (queue depth, running
	// count, outcome counters, latency histograms); nil allocates a private
	// registry reachable via (*Store).Metrics.
	Metrics *obs.Registry
}

// maxFinished is how many finished jobs a Store keeps. When one more job
// finishes, the job that finished longest ago is forgotten — its recorder,
// registry and result with it — so a long-running server's memory stays
// bounded; its id then answers 404. Queued and running jobs are never dropped.
const maxFinished = 1024

// Store owns the job table, the bounded FIFO queue, and the worker pool. It
// keeps every queued and running job and the newest maxFinished finished ones.
type Store struct {
	cfg     Config
	reg     *obs.Registry
	queue   chan *Job
	wg      sync.WaitGroup
	running atomic.Int64

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job
	order  []*Job // submission order, for GET /jobs listings
	// finished holds the kept terminal jobs in the order they finished;
	// keepFinished is maxFinished, lowered by tests.
	finished     []*Job
	keepFinished int

	// service instruments
	mSubmitted *obs.Counter
	mRejected  *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCancelled *obs.Counter
	mEvicted   *obs.Counter
	mPanics    *obs.Counter
	gQueued    *obs.Gauge
	gRunning   *obs.Gauge
	hWait      *obs.Histogram
	hRun       *obs.Histogram
}

// NewStore builds a store and starts its worker pool.
func NewStore(cfg Config) *Store {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		cfg:   cfg,
		reg:   reg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  map[string]*Job{},

		keepFinished: maxFinished,

		mSubmitted: reg.Counter("serve_jobs_submitted_total"),
		mRejected:  reg.Counter("serve_jobs_rejected_total"),
		mDone:      reg.Counter("serve_jobs_done_total"),
		mFailed:    reg.Counter("serve_jobs_failed_total"),
		mCancelled: reg.Counter("serve_jobs_cancelled_total"),
		mEvicted:   reg.Counter("serve_jobs_evicted_total"),
		mPanics:    reg.Counter("serve_job_panics_total"),
		gQueued:    reg.Gauge("serve_jobs_queued"),
		gRunning:   reg.Gauge("serve_jobs_running"),
		hWait:      reg.Histogram("serve_job_queue_wait_seconds", obs.LatencyBuckets),
		hRun:       reg.Histogram("serve_job_run_seconds", obs.LatencyBuckets),
	}
	reg.SetHelp("serve_jobs_submitted_total", "jobs accepted into the queue")
	reg.SetHelp("serve_jobs_rejected_total", "submissions rejected because the queue was full")
	reg.SetHelp("serve_jobs_evicted_total", fmt.Sprintf("finished jobs forgotten so that only the newest %d are kept", maxFinished))
	reg.SetHelp("serve_job_panics_total", "jobs failed by a panic in their engine or input reader; the job's error carries the stack")
	reg.SetHelp("serve_jobs_queued", "jobs currently waiting for a worker")
	reg.SetHelp("serve_jobs_running", "jobs currently executing")
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the registry carrying the service-level instruments.
func (s *Store) Metrics() *obs.Registry { return s.reg }

// Submit validates the spec and enqueues a new job. It returns ErrQueueFull
// when the FIFO queue is at capacity and ErrClosed after Shutdown; any other
// error is a validation failure. Graph materialization is deferred to the
// worker, so Submit is cheap even for generator specs of large graphs.
func (s *Store) Submit(spec Spec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.seq++
	j := &Job{
		id:         fmt.Sprintf("j%03d", s.seq),
		spec:       spec,
		edgesBytes: len(spec.Edges),
		rec:        obs.NewRecorder(),
		reg:        obs.NewRegistry(),
		state:      StateQueued,
		created:    time.Now(),
		doneCh:     make(chan struct{}),
	}
	j.emitState(StateQueued)
	select {
	case s.queue <- j:
	default:
		s.seq-- // slot refused; do not burn an id on a rejected job
		s.mRejected.Inc()
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mSubmitted.Inc()
	s.gQueued.Set(float64(len(s.queue)))
	return j, nil
}

// notFound is the ErrNotFound for id, which may name a job since forgotten.
func (s *Store) notFound(id string) error {
	return fmt.Errorf("%w: %q (finished jobs beyond the newest %d are not kept)", ErrNotFound, id, s.keepFinished)
}

// retire records that j reached a terminal state and forgets the jobs that
// finished longest ago beyond the newest keepFinished.
func (s *Store) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j)
	for len(s.finished) > s.keepFinished {
		old := s.finished[0]
		s.finished = slices.Delete(s.finished, 0, 1)
		delete(s.jobs, old.id)
		s.order = slices.DeleteFunc(s.order, func(o *Job) bool { return o == old })
		s.mEvicted.Inc()
	}
}

// Get returns the job with the given id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Store) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Cancel stops the job with the given id: a queued job transitions straight
// to cancelled (workers skip it), a running job has its context cancelled —
// the engines observe it within a level, the driver's watchdog unblocks
// parked collectives. Cancelling a terminal job is a no-op. The returned
// bool reports whether the call changed anything.
func (s *Store) Cancel(id string) (*Job, bool, error) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false, s.notFound(id)
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = "cancelled while queued"
		j.finished = time.Now()
		close(j.doneCh)
		j.mu.Unlock()
		j.emitState(StateCancelled)
		s.mCancelled.Inc()
		s.retire(j)
		return j, true, nil
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // worker finalizes state when the engine returns
		}
		return j, true, nil
	default:
		j.mu.Unlock()
		return j, false, nil
	}
}

// Shutdown drains the service: no new submissions are accepted, jobs still
// queued are cancelled, and running jobs are given until ctx is done to
// finish before their contexts are cancelled too. It returns once every
// worker has exited (nil), or an error if workers are still wedged 30s
// after the cancel broadcast.
func (s *Store) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()

	// Cancel everything still waiting; the workers draining the closed
	// channel skip jobs that are no longer queued.
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.err = "cancelled by shutdown"
			j.finished = time.Now()
			close(j.doneCh)
			j.mu.Unlock()
			j.emitState(StateCancelled)
			s.mCancelled.Inc()
			s.retire(j)
			continue
		}
		j.mu.Unlock()
	}

	workersDone := make(chan struct{})
	go func() { s.wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
		return nil
	case <-ctx.Done():
	}
	// Grace expired: cancel the running jobs and wait for the engines to
	// observe it (bounded — they poll at level/iteration boundaries and the
	// driver watchdog force-closes transports).
	for _, j := range jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	select {
	case <-workersDone:
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("serve: workers did not exit within 30s of cancellation")
	}
}

// worker runs jobs from the queue until the queue is closed and drained.
func (s *Store) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.gQueued.Set(float64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one job end to end and finalizes its state.
func (s *Store) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	wait := j.started.Sub(j.created)
	j.mu.Unlock()
	defer cancel()

	j.emitState(StateRunning)
	s.hWait.Observe(wait.Seconds())
	s.gRunning.Set(float64(s.running.Add(1)))
	defer func() { s.gRunning.Set(float64(s.running.Add(-1))) }()

	res, err := j.execute(ctx)

	j.mu.Lock()
	j.finished = time.Now()
	j.cancel = nil
	run := j.finished.Sub(j.started)
	switch {
	case err == nil:
		j.state = StateDone
		j.res = res
	case errors.Is(err, context.Canceled) || errors.Is(err, core.ErrCanceled):
		j.state = StateCancelled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	final := j.state
	close(j.doneCh)
	j.mu.Unlock()

	s.hRun.Observe(run.Seconds())
	var p *par.Panic
	if errors.As(err, &p) {
		s.mPanics.Inc()
	}
	switch final {
	case StateDone:
		s.mDone.Inc()
	case StateCancelled:
		s.mCancelled.Inc()
	default:
		s.mFailed.Inc()
	}
	j.emitState(final)
	s.retire(j)
}

// execute reads the job's graph and runs its engine. A panic on the way —
// on this goroutine, or on a rank of the engine's group, which comm.RunGroup
// turns into that rank's error — fails the job with an error that wraps a
// *par.Panic, whose text carries the stack, instead of ending the process.
func (j *Job) execute(ctx context.Context) (res *algo.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, par.Recovered(p)
		}
	}()
	el, err := j.spec.materialize()
	// The upload is parsed; a finished job kept for listing should not
	// hold its text.
	j.mu.Lock()
	j.spec.Edges = ""
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return algo.Run(ctx, j.spec.Algo, el, 0, j.spec.algoOptions(j.rec, j.reg))
}
