// Package cmd_test builds every CLI binary once and exercises the
// documented workflows end-to-end: generate → detect → compare, the stats
// and warm-start flags, the experiments driver and the multi-process TCP
// daemon.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "parlouvain-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./...")
	build.Dir = ".." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", name, args, out)
	}
	return string(out)
}

func TestGenerateDetectCompareWorkflow(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.bin")
	truth := filepath.Join(dir, "truth.txt")
	found := filepath.Join(dir, "found.txt")

	out := run(t, "gengraph", "-spec", "lfr:n=2000,mu=0.25,seed=4", "-o", graph, "-truth", truth)
	if !strings.Contains(out, "wrote") {
		t.Errorf("gengraph output: %s", out)
	}

	out = run(t, "louvain", "-ranks", "2", "-out", found, graph)
	if !strings.Contains(out, "final modularity:") {
		t.Errorf("louvain output: %s", out)
	}

	out = run(t, "partcmp", found, truth)
	if !strings.Contains(out, "NMI") {
		t.Errorf("partcmp output: %s", out)
	}
	// Strong structure at mu=0.25: NMI should print as a high value.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "NMI") {
			var v float64
			if _, err := fmt.Sscanf(strings.Fields(line)[1], "%f", &v); err != nil {
				t.Fatalf("parse NMI from %q: %v", line, err)
			}
			if v < 0.9 {
				t.Errorf("NMI = %v, want > 0.9", v)
			}
		}
	}
}

func TestLouvainFlags(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.txt")
	run(t, "gengraph", "-spec", "ring:k=8,s=5", "-o", graph)

	out := run(t, "louvain", "-seq", "-stats", graph)
	for _, want := range []string{"final modularity:", "vertices:", "components:", "coverage:", "conductance:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Generator input instead of a file.
	out = run(t, "louvain", "-ranks", "2", "-gen", "sbm:n=200,comms=4,pin=0.3,pout=0.01")
	if !strings.Contains(out, "communities:") {
		t.Errorf("generator mode output: %s", out)
	}
}

func TestLouvainWarmStartFlag(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.bin")
	first := filepath.Join(dir, "first.txt")
	run(t, "gengraph", "-spec", "lfr:n=1000,mu=0.3,seed=5", "-o", graph)
	run(t, "louvain", "-ranks", "2", "-out", first, graph)
	out := run(t, "louvain", "-ranks", "2", "-warm", first, graph)
	if !strings.Contains(out, "final modularity:") {
		t.Errorf("warm run output: %s", out)
	}
}

func TestLouvainErrors(t *testing.T) {
	runExpectError(t, "louvain", "/nonexistent/graph.txt")
	runExpectError(t, "louvain", "-gen", "bogus:n=5")
	runExpectError(t, "gengraph", "-spec", "lfr:n=100", "-o", "/nonexistent/dir/x.bin")
	runExpectError(t, "partcmp", "/nope/a", "/nope/b")
}

func TestExperimentsCLI(t *testing.T) {
	out := run(t, "experiments", "-size", "0.05", "table1")
	if !strings.Contains(out, "Table I") {
		t.Errorf("experiments output: %s", out)
	}
	runExpectError(t, "experiments", "nosuch")
}

func TestLouvaindThreeProcesses(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.bin")
	outFile := filepath.Join(dir, "dist.txt")
	run(t, "gengraph", "-spec", "sbm:n=150,comms=3,pin=0.4,pout=0.02,seed=2", "-o", graph)

	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	addrList := strings.Join(addrs, ",")

	var wg sync.WaitGroup
	outs := make([]string, 3)
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := []string{"-rank", fmt.Sprint(r), "-addrs", addrList, "-graph", graph}
			if r == 0 {
				args = append(args, "-out", outFile)
			}
			cmd := exec.Command(filepath.Join(binDir, "louvaind"), args...)
			b, err := cmd.CombinedOutput()
			outs[r], errs[r] = string(b), err
		}(r)
	}
	wg.Wait()
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v\n%s", r, errs[r], outs[r])
		}
		if !strings.Contains(outs[r], "Q=") {
			t.Errorf("rank %d output: %s", r, outs[r])
		}
	}
	if _, err := os.Stat(outFile); err != nil {
		t.Errorf("assignment file not written: %v", err)
	}
}

func TestLouvainTraceFlags(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "events.jsonl")
	chrome := filepath.Join(dir, "trace.json")

	out := run(t, "louvain", "-ranks", "3", "-trace", jsonl, "-chrome-trace", chrome,
		"-gen", "lfr:n=1500,mu=0.3,seed=9")
	if !strings.Contains(out, "telemetry events written") {
		t.Errorf("missing trace confirmation:\n%s", out)
	}

	// The JSONL stream must hold >= 1 "iteration" event per inner
	// iteration reported on stdout, each line valid JSON.
	var reportedIters int
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "inner-iterations=") {
			var n int
			if _, err := fmt.Sscanf(line[strings.Index(line, "inner-iterations=")+len("inner-iterations="):], "%d", &n); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			reportedIters += n
		}
	}
	if reportedIters == 0 {
		t.Fatalf("no inner iterations reported:\n%s", out)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	iterEvents := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e struct {
			Name string `json:"name"`
			Rank int    `json:"rank"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		if e.Name == "iteration" && e.Rank == 0 {
			iterEvents++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if iterEvents < reportedIters {
		t.Errorf("JSONL has %d rank-0 iteration events, want >= %d", iterEvents, reportedIters)
	}

	// The Chrome trace must validate as JSON with a traceEvents array.
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
}

func TestLouvaindDebugEndpoints(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.bin")
	jsonl := filepath.Join(dir, "rank0.jsonl")
	// Big enough that the detection outlives the scrape below.
	run(t, "gengraph", "-spec", "lfr:n=20000,mu=0.35,seed=3", "-o", graph)

	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	debugLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := debugLn.Addr().String()
	debugLn.Close()

	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := []string{"-rank", fmt.Sprint(r), "-addrs", strings.Join(addrs, ","), "-graph", graph}
			if r == 0 {
				args = append(args, "-debug-addr", debugAddr, "-trace", jsonl)
			}
			cmd := exec.Command(filepath.Join(binDir, "louvaind"), args...)
			b, err := cmd.CombinedOutput()
			outs[r], errs[r] = string(b), err
		}(r)
	}

	// Scrape /metrics and /healthz while rank 0 is running.
	get := func(path string) (int, string, error) {
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}
	var metricsBody, healthBody, pprofBody string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body, err := get("/metrics")
		if err == nil && code == 200 && strings.Contains(body, "comm_rounds_total") {
			metricsBody = body
			_, healthBody, _ = get("/healthz")
			_, pprofBody, _ = get("/debug/pprof/")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v\n%s", r, errs[r], outs[r])
		}
	}
	if metricsBody == "" {
		t.Fatal("never scraped /metrics from the running daemon")
	}
	for _, want := range []string{"# TYPE comm_bytes_sent_total counter", "comm_exchange_seconds_bucket", "louvain_modularity"} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}
	if !strings.Contains(healthBody, `"rank":0`) || !strings.Contains(healthBody, `"mesh"`) {
		t.Errorf("/healthz body: %s", healthBody)
	}
	if !strings.Contains(pprofBody, "goroutine") {
		t.Errorf("/debug/pprof/ body missing profile index")
	}
	if fi, err := os.Stat(jsonl); err != nil || fi.Size() == 0 {
		t.Errorf("rank 0 JSONL trace: err=%v", err)
	}
}

func TestGraphinfoCLI(t *testing.T) {
	out := run(t, "graphinfo", "-hist", "-gcc", "-gen", "ring:k=6,s=5")
	for _, want := range []string{"vertices:", "components:", "clustering:", "degree histogram:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	runExpectError(t, "graphinfo", "/nonexistent")
}

func TestLouvainAlgoVariants(t *testing.T) {
	for _, algo := range []string{"lpa", "ensemble", "leiden", "lns", "seq-louvain", "plm", "plp"} {
		out := run(t, "louvain", "-algo", algo, "-gen", "ring:k=6,s=5")
		if !strings.Contains(out, "final modularity:") {
			t.Errorf("algo %s output: %s", algo, out)
		}
		if !strings.Contains(out, "algorithm: "+algo) {
			t.Errorf("algo %s not echoed: %s", algo, out)
		}
	}
	out := run(t, "louvain", "-refine", "-gen", "ring:k=6,s=5")
	if !strings.Contains(out, "refinement:") {
		t.Errorf("refine output: %s", out)
	}
	// Unknown names fail and the error enumerates the registry.
	out = runExpectError(t, "louvain", "-algo", "bogus", "-gen", "ring:k=6,s=5")
	for _, name := range []string{"par-louvain", "seq-louvain", "leiden", "lns", "lpa", "ensemble", "plm", "plp"} {
		if !strings.Contains(out, name) {
			t.Errorf("unknown-algo error does not list %s: %s", name, out)
		}
	}
	out = run(t, "louvain", "-list-algos")
	if !strings.Contains(out, "par-louvain") || !strings.Contains(out, "leiden") {
		t.Errorf("-list-algos output: %s", out)
	}
}

func TestCompareCLI(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "cells.jsonl")
	out := run(t, "compare", "-smoke", "-jsonl", jsonl)
	if !strings.Contains(out, "smoke OK") {
		t.Errorf("compare -smoke output: %s", out)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cells, bterCells int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Graph  string   `json:"graph"`
			Algo   string   `json:"algo"`
			Q      float64  `json:"q"`
			NMI    *float64 `json:"nmi"`
			WallMS float64  `json:"wall_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if rec.Graph == "" || rec.Algo == "" || rec.WallMS <= 0 {
			t.Errorf("incomplete cell: %+v", rec)
		}
		if rec.Graph == "rmat" && rec.NMI != nil {
			t.Errorf("rmat cell has NMI: %+v", rec)
		}
		if rec.Graph == "lfr" && rec.NMI == nil {
			t.Errorf("lfr cell missing NMI: %+v", rec)
		}
		if rec.Graph == "bter" && rec.NMI == nil {
			t.Errorf("bter cell missing NMI: %+v", rec)
		}
		if rec.Graph == "bter" {
			bterCells++
		}
		cells++
	}
	if bterCells != 8 {
		t.Errorf("smoke sweep wrote %d bter cells, want 8 (one per engine)", bterCells)
	}
	if cells != 24 {
		t.Errorf("smoke sweep wrote %d cells, want 24 (8 engines x 3 graphs)", cells)
	}

	out = run(t, "compare", "-engines-md")
	if !strings.Contains(out, "| Engine |") || !strings.Contains(out, "`par-louvain`") {
		t.Errorf("compare -engines-md output: %s", out)
	}
	runExpectError(t, "compare", "-algos", "bogus")
}

// freeAddr reserves an ephemeral 127.0.0.1 port and returns it for reuse.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLouvaindServeMode drives the real binary through the service
// lifecycle: submit a job over HTTP, poll it to completion, fetch the
// result, then SIGTERM the daemon and assert it drains and exits cleanly.
func TestLouvaindServeMode(t *testing.T) {
	addr := freeAddr(t)
	cmd := exec.Command(filepath.Join(binDir, "louvaind"),
		"-serve", "-debug-addr", addr, "-serve-workers", "1", "-serve-queue", "4", "-drain-timeout", "5s")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, body := get("/healthz"); code == 200 && strings.Contains(body, `"serve"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Post("http://"+addr+"/jobs", "application/json",
		strings.NewReader(`{"gen":"lfr:n=400,mu=0.3,seed=5","algo":"louvain","ranks":2,"check":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Q     float64
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	for {
		_, body := get("/jobs/" + st.ID)
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("poll: %v (%s)", err, body)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job reached %s: %s", st.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := get("/jobs/" + st.ID + "/result?format=text"); code != 200 || strings.Count(body, "\n") != 400 {
		t.Errorf("text result: code %d, %d lines", code, strings.Count(body, "\n"))
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "serve_jobs_done_total 1") {
		t.Errorf("/metrics after job: code %d\n%s", code, body)
	}
	if code, body := get("/jobs/" + st.ID + "/metrics"); code != 200 || !strings.Contains(body, `job="`+st.ID+`"`) {
		t.Errorf("per-job metrics: code %d\n%s", code, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "draining jobs") || !strings.Contains(out, "drained; exiting") {
		t.Errorf("drain log missing:\n%s", out)
	}
}

// TestLouvaindSignalDrain sends SIGTERM to a batch-mode rank mid-detection
// and asserts it cancels the engine, drains, and exits 0 instead of dying
// with the run half-done.
func TestLouvaindSignalDrain(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.bin")
	run(t, "gengraph", "-spec", "lfr:n=60000,mu=0.35,seed=3", "-o", graph)
	addr := freeAddr(t)
	debugAddr := freeAddr(t)

	cmd := exec.Command(filepath.Join(binDir, "louvaind"),
		"-rank", "0", "-addrs", addr, "-graph", graph, "-debug-addr", debugAddr, "-agg-interval", "0")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + debugAddr + "/healthz")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(b), `"running"`) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank never reached running:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("rank exit after SIGTERM: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "canceled by signal") {
		t.Errorf("no graceful-cancel log:\n%s", buf.String())
	}
}
