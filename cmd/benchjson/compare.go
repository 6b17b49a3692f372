package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// tolerances are the fractional slowdowns -compare accepts before flagging
// a regression. They are deliberately loose: the absolute numbers in a
// checked-in baseline come from a different machine, and even same-host
// runs ride CPU-steal phases on shared single-core CI runners — the
// defaults are sized to the worst noise observed there with the suite's
// min-of-N repetition already applied, so only large moves are signal.
// Within-machine comparisons on quiet hardware can tighten them via flags.
type tolerances struct {
	NsPerOp float64 // micro-bench ns/op increase
	Bytes   float64 // micro-bench B/op and allocs/op increase
	E2E     float64 // end-to-end wall-clock increase
	Overlap float64 // overlap-fraction decrease
}

func defaultTolerances() tolerances {
	return tolerances{NsPerOp: 0.75, Bytes: 0.10, E2E: 0.50, Overlap: 0.50}
}

// delta is one compared metric; Ratio is new/old (or old/new for
// higher-is-better metrics, so > 1 always means "worse").
type delta struct {
	Metric    string
	Old, New  float64
	Ratio     float64
	Allowed   float64 // max acceptable ratio
	Regressed bool
}

// compareMetric builds a lower-is-better delta: worse means new > old.
func compareMetric(name string, oldV, newV, tol float64) delta {
	d := delta{Metric: name, Old: oldV, New: newV, Allowed: 1 + tol}
	if oldV > 0 {
		d.Ratio = newV / oldV
		d.Regressed = d.Ratio > d.Allowed
	}
	return d
}

// e2eKey identifies one e2e configuration across reports. Runs from the
// storage-variant series carry their backend in the key (plus the prune
// marker of reports that predate the option's removal), so a hash run is
// never gated against a CSR run; pre-storage reports have an empty Storage
// field and keep their original transport/mode keys.
func e2eKey(r e2eRun) string {
	key := r.Transport + "/" + r.Mode
	if r.Algo != "" {
		// Thread-sweep series rows differ only by engine and thread count.
		return fmt.Sprintf("%s/%s/t%d", key, r.Algo, r.Threads)
	}
	if r.Storage != "" {
		key += "/" + r.Storage
	}
	if r.Prune {
		key += "+prune"
	}
	return key
}

// compareReports diffs every metric present in both reports. Entries that
// exist on only one side are skipped — -skip-bench runs and renamed
// benchmarks must not trip the gate.
func compareReports(oldR, newR *report, tol tolerances) []delta {
	var out []delta

	oldBench := map[string]benchLine{}
	for _, b := range oldR.Benchmarks {
		oldBench[b.Name] = b
	}
	for _, nb := range newR.Benchmarks {
		ob, ok := oldBench[nb.Name]
		if !ok {
			continue
		}
		out = append(out, compareMetric(nb.Name+" ns/op", ob.NsPerOp, nb.NsPerOp, tol.NsPerOp))
		if strings.Contains(nb.Name, "net=tcp") {
			// TCP benchmark allocations depend on kernel buffer timing
			// (read coalescing), not on the code under test — gating them
			// flags scheduler luck, not regressions.
			continue
		}
		for _, m := range []string{"B/op", "allocs/op"} {
			ov, okO := ob.Metrics[m]
			nv, okN := nb.Metrics[m]
			if !okO || !okN {
				continue
			}
			out = append(out, compareMetric(nb.Name+" "+m, ov, nv, tol.Bytes))
		}
	}

	oldE2E := map[string]e2eRun{}
	for _, r := range oldR.E2E {
		oldE2E[e2eKey(r)] = r
	}
	for _, nr := range newR.E2E {
		key := e2eKey(nr)
		or, ok := oldE2E[key]
		if !ok || or.Ranks != nr.Ranks || or.Threads != nr.Threads {
			continue
		}
		out = append(out, compareMetric("e2e "+key+" seconds", or.Seconds, nr.Seconds, tol.E2E))
		if or.OverlapFrac > 0 && nr.OverlapFrac > 0 {
			// Higher is better: invert so Ratio > 1 means worse.
			d := delta{
				Metric:  "e2e " + key + " overlap-frac",
				Old:     or.OverlapFrac,
				New:     nr.OverlapFrac,
				Ratio:   or.OverlapFrac / nr.OverlapFrac,
				Allowed: 1 / (1 - tol.Overlap),
			}
			d.Regressed = d.Ratio > d.Allowed
			out = append(out, d)
		}
	}
	return out
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// writeCompare renders the delta table and returns the regression count.
func writeCompare(w io.Writer, deltas []delta) int {
	regressed := 0
	fmt.Fprintf(w, "%-60s %14s %14s %7s %7s  %s\n", "metric", "old", "new", "ratio", "allow", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-60s %14.4g %14.4g %7.3f %7.3f  %s\n",
			d.Metric, d.Old, d.New, d.Ratio, d.Allowed, verdict)
	}
	return regressed
}

// warnHostMismatch prints a loud warning when the two reports were produced
// on different machines (or the baseline predates host fingerprints):
// absolute times across hosts are noise, so any gate verdict is suspect.
func warnHostMismatch(w io.Writer, oldR, newR *report) {
	switch {
	case oldR.Host.Cores == 0 && oldR.Host.GoRuntime == "":
		fmt.Fprintln(w, "WARNING: baseline report has no host fingerprint (written by an older benchjson);")
		fmt.Fprintln(w, "WARNING: cross-host timing comparisons are unreliable — treat verdicts as advisory.")
	case oldR.Host != newR.Host:
		fmt.Fprintln(w, "WARNING: reports come from different hosts — absolute times are not comparable:")
		fmt.Fprintf(w, "WARNING:   old: %s\n", oldR.Host)
		fmt.Fprintf(w, "WARNING:   new: %s\n", newR.Host)
		fmt.Fprintln(w, "WARNING: treat verdicts as advisory; regenerate the baseline on this machine to gate strictly.")
	}
}

// runCompare is the -compare entry point: diff two report files and exit
// non-zero when any metric regressed beyond tolerance.
func runCompare(oldPath, newPath string, tol tolerances) error {
	oldR, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := loadReport(newPath)
	if err != nil {
		return err
	}
	warnHostMismatch(os.Stderr, oldR, newR)
	deltas := compareReports(oldR, newR, tol)
	if len(deltas) == 0 {
		return fmt.Errorf("no comparable metrics between %s and %s", oldPath, newPath)
	}
	if n := writeCompare(os.Stdout, deltas); n > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance (old %s, new %s)", n, oldPath, newPath)
	}
	fmt.Printf("no regressions: %d metric(s) within tolerance\n", len(deltas))
	return nil
}
