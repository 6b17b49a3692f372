package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
	"parlouvain/internal/serve"
)

// jobClass is one kind of job in the serve-mix traffic.
type jobClass struct {
	Key   string // names the class in serve.p50_ms.<key>
	Algo  string
	Ranks int
	// Gen is the generator spec, %d standing for the job's own seed; empty
	// for the class that uploads an inline edge list.
	Gen string
	// MinN..MaxN bound the vertex count a correct result may have.
	MinN, MaxN int
}

var jobClasses = []jobClass{
	{Key: "ring", Algo: "seq-louvain", Ranks: 1, Gen: "ring:k=8,s=6", MinN: 48, MaxN: 48},
	{Key: "sbm", Algo: "plm", Ranks: 1, Gen: "sbm:n=1000,comms=8,seed=%d", MinN: 1000, MaxN: 1000},
	{Key: "lfr2k", Algo: "par-louvain", Ranks: 2, Gen: "lfr:n=2000,mu=0.3,seed=%d", MinN: 2000, MaxN: 2000},
	{Key: "lfr8k", Algo: "par-louvain", Ranks: 2, Gen: "lfr:n=8000,mu=0.3,seed=%d", MinN: 8000, MaxN: 8000},
	// R-MAT leaves some ids unused, and the vertex count is the highest id + 1.
	{Key: "rmat", Algo: "plm", Ranks: 1, Gen: "rmat:scale=11,seed=%d", MinN: 1500, MaxN: 2048},
	{Key: "edges", Algo: "seq-louvain", Ranks: 1, MinN: uploadN, MaxN: uploadN},
}

// jobCycle is the order classes are drawn in, as indices into jobClasses:
// the client walks seeded shuffles of it, so every class shows up in every
// block. lfr2k is there four times and lfr8k three times so that the median
// job is an lfr2k job, not a point between two classes that one job more or
// fewer would move.
var jobCycle = []int{0, 1, 2, 2, 2, 2, 3, 3, 3, 4, 5}

const (
	uploadN      = 2000 // vertices of an uploaded graph
	uploadPool   = 32   // distinct uploads prepared per set-up
	serveWorkers = 2
	serveQueue   = 64
	jobTimeout   = 60 * time.Second
	// blockCycles is how many 11-job cycles the client sends per block, and
	// minBlocks how often the block is repeated at least.
	blockCycles = 2
	minBlocks   = 2
)

// serveEnv is a running job service and what the client needs to load it.
type serveEnv struct {
	store   *serve.Store
	srv     *http.Server
	base    string
	uploads []string // inline edge lists for the "edges" class
	client  *http.Client
}

// setupServe prepares the uploads and starts the service on a loopback port.
func setupServe(seed int64, smoke bool, tr *tracer, parent ref) (*serveEnv, error) {
	env := &serveEnv{}
	sp := tr.start(parent, "serve.uploads", 0)
	pool := uploadPool
	if smoke {
		pool = 2
	}
	for i := 0; i < pool; i++ {
		cfg := gen.DefaultLFR(uploadN, 0.3, instanceSeed(seed, i))
		el, _, err := gen.LFR(cfg)
		if err != nil {
			return nil, fmt.Errorf("upload graph: %w", err)
		}
		// Pin the vertex count: the service infers it from the highest id.
		el = append(el, graph.Edge{U: uploadN - 1, V: uploadN - 1, W: 1})
		var buf bytes.Buffer
		if err := graph.WriteText(&buf, el); err != nil {
			return nil, fmt.Errorf("upload text: %w", err)
		}
		env.uploads = append(env.uploads, buf.String())
	}
	sp.end()

	sp = tr.start(parent, "serve.start", 0)
	defer sp.end()
	env.store = serve.NewStore(serve.Config{Workers: serveWorkers, QueueDepth: serveQueue, Metrics: obs.NewRegistry()})
	srv, err := obs.Serve("127.0.0.1:0", env.store.Handler())
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env.srv = srv
	env.base = "http://" + srv.Addr
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return env, nil
}

func (env *serveEnv) close() {
	env.client.CloseIdleConnections()
	env.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Nothing is queued or running once the client has returned.
	_ = env.store.Shutdown(ctx)
}

// jobSample is one job as its client saw it.
type jobSample struct {
	class                        int
	submitMS, latencyMS, fetchMS float64
	queueMS, runMS, q            float64
	rejected                     bool // the submit was answered 429
	err                          error
}

// runJob submits one job, waits on its SSE stream for the terminal frame
// and fetches the result, as a caller who wants the partition would.
func (env *serveEnv) runJob(class int, jobSeed uint64, tr *tracer, parent ref) jobSample {
	c := jobClasses[class]
	s := jobSample{class: class}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	job := tr.start(parent, "job."+c.Key, 0)
	defer job.end()

	spec := serve.Spec{Algo: c.Algo, Ranks: c.Ranks, Gen: c.Gen}
	switch {
	case c.Gen == "":
		spec.Edges = env.uploads[int(jobSeed%uint64(len(env.uploads)))]
	case strings.Contains(c.Gen, "%d"): // ring takes no seed
		spec.Gen = fmt.Sprintf(c.Gen, jobSeed)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return s
	}

	sp := tr.start(job, "serve.submit", 0)
	var st serve.Status
	code, err := env.do(ctx, http.MethodPost, "/jobs", body, &st)
	sp.end()
	s.submitMS = since(start) * 1000
	s.rejected = code == http.StatusTooManyRequests
	if err != nil || code != http.StatusAccepted {
		s.err = fmt.Errorf("submit: status %d: %v", code, err)
		return s
	}

	sp = tr.start(job, "serve.wait", 0)
	st, err = env.waitDone(ctx, st.ID)
	sp.end()
	s.latencyMS = since(start) * 1000
	if err != nil {
		s.err = fmt.Errorf("job %s: %w", st.ID, err)
		return s
	}
	if st.State != serve.StateDone {
		s.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return s
	}
	s.queueMS, s.runMS, s.q = st.QueueWaitMS, st.RunMS, st.Q

	sp = tr.start(job, "serve.result_fetch", 0)
	t := time.Now()
	var res struct {
		Assignment []uint32 `json:"assignment"`
	}
	code, err = env.do(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", nil, &res)
	sp.end()
	s.fetchMS = since(t) * 1000
	if err != nil || code != http.StatusOK {
		s.err = fmt.Errorf("job %s result: status %d: %v", st.ID, code, err)
		return s
	}
	if n := len(res.Assignment); n != st.Vertices || n < c.MinN || n > c.MaxN {
		s.err = fmt.Errorf("job %s (%s): result covers %d vertices, status says %d, class allows %d..%d",
			st.ID, c.Key, n, st.Vertices, c.MinN, c.MaxN)
	}
	return s
}

// do sends one request and decodes a JSON reply into out.
func (env *serveEnv) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// waitDone follows the job's event stream to its "event: done" frame and
// returns the final status that frame carries.
func (env *serveEnv) waitDone(ctx context.Context, id string) (serve.Status, error) {
	st := serve.Status{ID: id}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, env.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			return st, json.Unmarshal([]byte(data), &st)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("event stream ended without a done frame")
}

// block is one repetition of the traffic and what it cost as a whole.
type block struct {
	jobs      []jobSample // in the order the client sent them
	wall, cpu float64     // seconds from the first submit to the last answer, and the process's CPU seconds meanwhile
}

// runBlock runs the closed loop once: one client walks the given number of
// shuffles of jobCycle, submitting its next job only when the previous one
// has answered. The shuffles and the job seeds hang on the run's seed alone,
// so every block of a run sends the same jobs in the same order. One client,
// not two: on the one P a job's latency then hung on which job of the other
// client it shared the P with, and the median job of unchanged code read
// 66-107 ms from seed to seed.
func (env *serveEnv) runBlock(seed int64, cycles int, tr *tracer, parent ref) block {
	var b block
	t, cpu0 := time.Now(), cpuSeconds()
	rng := gen.NewRNG(instanceSeed(seed, 1000))
	cycle := make([]uint32, len(jobCycle))
	for n := 0; n < cycles; n++ {
		for i, ci := range jobCycle {
			cycle[i] = uint32(ci)
		}
		rng.Shuffle(cycle)
		for _, class := range cycle {
			jobSeed := instanceSeed(seed, 1_000_000+len(b.jobs))
			b.jobs = append(b.jobs, env.runJob(int(class), jobSeed, tr, parent))
		}
	}
	b.wall, b.cpu = since(t), cpuSeconds()-cpu0
	return b
}

// runBlocks repeats the block until the next one would not fit the window
// that began at begin, at least minBlocks times (once at smoke scale).
func (env *serveEnv) runBlocks(cfg config, begin time.Time, tr *tracer, parent ref) []block {
	var blocks []block
	cycles := blockCycles
	if cfg.smoke {
		cycles = 1
	}
	for {
		n := len(blocks)
		if cfg.smoke && n == 1 {
			break
		}
		if n >= minBlocks && since(begin)+blocks[n-1].wall > cfg.seconds {
			break
		}
		blocks = append(blocks, env.runBlock(cfg.seed, cycles, tr, parent))
	}
	return blocks
}

// serveStats folds a run's blocks into the metrics and counts. The blocks
// send the same jobs, the service is deterministic, and the host's noise only
// ever adds time: every job slot (position in the block) counts with the
// fastest of its repetitions, throughput and CPU per job with the fastest block.
func serveStats(out *outcome, blocks []block) {
	var best []jobSample // per slot, its fastest correct repetition
	var all []float64    // every correct job's latency, repetitions and all
	rejected := 0
	bestBlock := blocks[0]
	for _, b := range blocks {
		if b.wall < bestBlock.wall {
			bestBlock = b
		}
		for slot, j := range b.jobs {
			out.Attempted++
			if j.rejected {
				rejected++
			}
			if j.err != nil {
				out.fail(j.err.Error())
				j.latencyMS = math.Inf(1)
			} else {
				all = append(all, j.latencyMS)
			}
			if slot == len(best) {
				best = append(best, j)
			} else if j.latencyMS < best[slot].latencyMS {
				best[slot] = j
			}
		}
	}
	var lat, run, queue, over, submit, fetch []float64
	perClassLat := make([][]float64, len(jobClasses))
	perClassQ := make([][]float64, len(jobClasses))
	for _, j := range best {
		if math.IsInf(j.latencyMS, 1) {
			return // a job never answered correctly: no timings
		}
		lat = append(lat, j.latencyMS)
		run = append(run, j.runMS)
		queue = append(queue, j.queueMS)
		over = append(over, j.latencyMS-j.queueMS-j.runMS)
		submit = append(submit, j.submitMS)
		fetch = append(fetch, j.fetchMS)
		perClassLat[j.class] = append(perClassLat[j.class], j.latencyMS)
		perClassQ[j.class] = append(perClassQ[j.class], j.q)
	}
	slots, n := float64(len(best)), len(best)*len(blocks)
	// One Q per class, then the mean over classes.
	var classQ []float64
	for ci := range jobClasses {
		classQ = append(classQ, mean(perClassQ[ci]))
		out.set("serve.p50_ms."+jobClasses[ci].Key, median(perClassLat[ci]), len(perClassLat[ci])*len(blocks))
	}
	out.set("solve_s", median(run)/1000, n)
	out.set("modularity", mean(classQ), len(best))
	out.set("cpu_s", bestBlock.cpu/slots, n)
	out.set("job_p50_ms", median(lat), n)
	out.set("jobs_per_s", slots/bestBlock.wall, n)

	// The tail as a client saw it, noise included: over every job sent.
	out.set("serve.p90_ms", percentile(all, tailPercentile(len(all), 90)), len(all))
	out.set("serve.submit_ms", median(submit), n)
	out.set("serve.queue_wait_ms", median(queue), n)
	out.set("serve.run_ms", median(run), n)
	out.set("serve.overhead_ms", median(over), n)
	out.set("serve.result_fetch_ms", median(fetch), n)
	out.set("serve.null_job_ms", median(perClassLat[0]), len(perClassLat[0])*len(blocks))
	out.set("serve.rejected", float64(rejected), out.Attempted)
}

// setupReps is how many times serve-mix sets up, to report a median: its
// set-up is too short for one sample to mean much.
const setupReps = 7

// runServe is the untraced run of serve-mix.
func runServe(cfg config) (*outcome, error) {
	out := &outcome{Metrics: map[string]value{}}
	begin := time.Now()
	var setups []float64
	var env *serveEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = setupServe(cfg.seed, cfg.smoke, nil, ref{}); err != nil {
			return nil, err
		}
		setups = append(setups, since(t))
	}
	defer env.close()

	serveStats(out, env.runBlocks(cfg, begin, nil, ref{}))
	out.set("setup_s", median(setups), len(setups))
	out.set("peak_rss_mb", peakRSSMiB(), 1)
	return out, nil
}

// traceServe is the traced run of serve-mix: blocks without spans, blocks
// with a span per job and per client step, and the ladder on the graph of the
// largest job class.
func traceServe(out *outcome, cfg config, tr *tracer, root ref) error {
	sp := tr.start(root, "setup", 0)
	env, err := setupServe(cfg.seed, cfg.smoke, tr, sp)
	sp.end()
	if err != nil {
		return err
	}
	defer env.close()

	cfg.seconds = 0 // minBlocks blocks each way
	plain := &outcome{Metrics: map[string]value{}}
	serveStats(plain, env.runBlocks(cfg, time.Now(), nil, ref{}))

	sp = tr.start(root, "solve", 0)
	blocks := env.runBlocks(cfg, time.Now(), tr, sp)
	sp.end()
	serveStats(out, blocks)
	out.Attempted += plain.Attempted
	out.Failed += plain.Failed
	out.Notes = append(out.Notes, plain.Notes...)

	// The graph of the lfr8k class, solved the way its jobs are. Like a job,
	// it is checked for shape and Q only: no planted communities, no floor.
	big := jobClasses[3]
	w := &workload{
		Name: "serve-mix", Algo: big.Algo, Ranks: big.Ranks, Threads: 1, Size: big.MinN, Smoke: big.MinN,
		Gen: func(n int, seed uint64) (graph.EdgeList, []graph.V, error) {
			el, _, err := gen.LFR(gen.DefaultLFR(n, 0.3, seed))
			return el, nil, err
		},
	}
	if err := w.traceGraph(out, cfg, tr, root); err != nil {
		return err
	}
	if p := plain.Metrics["job_p50_ms"].V; p > 0 {
		out.set("trace_overhead_frac", out.Metrics["job_p50_ms"].V/p, out.Metrics["job_p50_ms"].N)
	}
	return nil
}
