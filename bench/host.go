package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parlouvain/internal/buildinfo"
)

// benchProcs is the GOMAXPROCS every workload runs at. The host the
// benchmark was sized on gives it 2 vCPUs of a shared machine, and they are
// not two cores: with both busy, each ran at about half speed for seconds at
// a time. Two ranks that meet hundreds of times a solve, one per vCPU, then
// took 0.9 s or 1.6 s per solve as the hypervisor pleased, and ten runs of
// unchanged code spread by 30-68 % of their median. On one P the rank group,
// plm's two threads and the service's two workers are time-sliced, a solve
// costs the work of all its ranks, and the other vCPU stays idle. What is
// lost is the overlap between ranks; no thread-scaling claim could be made
// on this host anyway.
const benchProcs = 1

// host fingerprints the machine and build a result came from; times from
// different hosts do not compare.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

// fingerprint reads the host's identity; the /proc fields stay empty where
// /proc is absent.
func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs,
		GoVersion:  runtime.Version(),
		Revision:   buildinfo.Revision(),
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(ln, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// warn prints what makes this host's numbers doubtful; recorded, not fatal.
func (h host) warn() {
	if h.NProc < 2 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %d CPU; the benchmark's one busy thread shares it with the runtime's and the kernel's own work\n", h.NProc)
	}
	if h.LoadAvg1 > 1 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: 1-min load average %.2f at start; timings will include someone else's work\n", h.LoadAvg1)
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is this process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }
