// Command bench is the repository's benchmark: five named workloads, seven
// end-to-end metrics with regression bounds, and a traced run that times
// each layer's exported functions on the same inputs. README.md in this
// directory is the catalogue; BENCHMARK.json at the repo root is the same
// catalogue for the driver.
//
//	bash bench/run.sh --workload par-lfr --seed 11 --seconds 20 --trace 0
//	bash bench/run.sh                 # every workload, untraced
//	bash bench/run.sh -traced         # every workload's per-layer ladder
//	bash bench/run.sh -selfcheck      # untraced set twice, A/A within bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func main() {
	var cfg config
	traceN := flag.Int("trace", 0, "1: traced run, print the per-layer metrics; 0: untraced, print the end-to-end metrics")
	traced := flag.Bool("traced", false, "same as -trace 1")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
	flag.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 11, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of each workload's timed window")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and one solve per workload, for the harness's own test")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for results.json and the Chrome traces")
	flag.Parse()
	cfg.trace = *traced || *traceN != 0

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg)
	case cfg.workload == "":
		_, err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the last line a single-workload run prints, and what the
// driver reads.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, so that peak RSS and GC state
// are the workload's own, and prints its metrics.
func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(benchProcs)

	var out *outcome
	var err error
	switch {
	case cfg.trace:
		out, err = runTraced(w, cfg)
	case w.Algo == "":
		out, err = runServe(cfg)
	default:
		out, err = w.runGraph(cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, note := range out.Notes {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", w.Name, note)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct: out.Failed == 0 && out.Attempted > 0, Attempted: max(out.Attempted, 1), Failed: out.Failed,
		Metrics: map[string]resultMetric{},
	}
	for _, d := range defs {
		v := out.Metrics[d.Name] // a run whose solves all failed has no timings: 0
		fmt.Printf("%-13s %-24s %14.6f %-6s n=%d\n", w.Name, d.Name, v.V, d.Unit, v.N)
		res.Metrics[d.Name] = resultMetric{v.V, d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runTraced is the traced run of any workload: spans around every call into
// a layer, written as a Chrome trace when the run ends.
func runTraced(w *workload, cfg config) (*outcome, error) {
	out := &outcome{Metrics: map[string]value{}}
	tr := newTracer(w.Name)
	root := tr.start(ref{}, "workload", 0)
	var err error
	if w.Algo == "" {
		err = traceServe(out, cfg, tr, root)
	} else {
		err = w.traceGraph(out, cfg, tr, root) // no jobs: the serve.* metrics stay 0
	}
	root.end()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.Name, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: wrote %s\n", w.Name, path)
	return out, nil
}

// report is results.json: every workload's result with the host it ran on.
// Claim is null: the change that adds a benchmark claims no gain.
type report struct {
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Smoke     bool              `json:"smoke"`
	Claim     *string           `json:"claim"`
	Workloads map[string]result `json:"workloads"`
}

// runAll runs every workload in a child process of this binary and writes
// results.json. It fails if any workload's outputs were wrong.
func runAll(cfg config) (*report, error) {
	rep := &report{
		Host: fingerprint(), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Smoke: cfg.smoke,
		Workloads: map[string]result{},
	}
	rep.Host.warn()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	wrong := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-out", cfg.out, fmt.Sprintf("-smoke=%v", cfg.smoke), fmt.Sprintf("-traced=%v", cfg.trace),
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
		}
		if !res.Correct {
			wrong++
		}
		rep.Workloads[w.Name] = res
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	if wrong > 0 {
		return rep, fmt.Errorf("%d workload(s) produced incorrect outputs", wrong)
	}
	return rep, nil
}

// runSelfcheck runs the untraced set twice on the same code and fails when
// the two values of an end-to-end metric differ by more than its bound: the
// benchmark's own noise must fit inside its bounds.
func runSelfcheck(cfg config) error {
	cfg.trace = false
	a, err := runAll(cfg)
	if err != nil {
		return err
	}
	b, err := runAll(cfg) // results.json keeps the second set
	if err != nil {
		return err
	}
	over := 0
	fmt.Printf("%-13s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Workloads[w.Name].Metrics[d.Name].Value, b.Workloads[w.Name].Metrics[d.Name].Value
			ratio := vb / va
			verdict := ""
			if !(math.Abs(ratio-1) <= d.Bound) { // also catches NaN
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-13s %-12s %14.6f %14.6f %8.4f %6.2f%s\n", w.Name, d.Name, va, vb, ratio, d.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same code", over)
	}
	return nil
}
