// Command compare sweeps the algorithm registry across benchmark graph
// families and reports quality versus speed: modularity, NMI/ARI against
// planted truth (where the generator provides one), wall-clock time and
// communication volume, as a markdown table and optionally JSONL.
//
// Typical runs:
//
//	compare                          # all engines × {lfr, rmat, bter}, markdown to stdout
//	compare -algos par-louvain,lpa -graphs lfr -n 5000 -mu 0.4
//	compare -threads 1,2,4 -algos plm,plp          # shared-memory scaling sweep
//	compare -jsonl results.jsonl -md table.md -repeat 3
//	compare -smoke                   # tiny inputs, assert valid partitions (CI)
//	compare -engines-md              # print the registry table for README
//
// Every cell runs through the same algo registry path the louvain/louvaind
// binaries use, so the numbers reflect the deployed engine code, including
// per-transport communication accounting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"parlouvain"
	"parlouvain/internal/buildinfo"
)

// cell is one (graph, algorithm) measurement. NMI/ARI are pointers so JSONL
// emits null for graphs without planted truth instead of a fake 0.
type cell struct {
	Graph       string   `json:"graph"`
	Algo        string   `json:"algo"`
	Threads     int      `json:"threads"`
	N           int      `json:"n"`
	Edges       int64    `json:"edges"`
	Q           float64  `json:"q"`
	NMI         *float64 `json:"nmi"`
	ARI         *float64 `json:"ari"`
	WallMS      float64  `json:"wall_ms"`
	Speedup     *float64 `json:"speedup,omitempty"`
	Efficiency  *float64 `json:"efficiency,omitempty"`
	CommBytes   uint64   `json:"comm_bytes"`
	CommRounds  uint64   `json:"comm_rounds"`
	Levels      int      `json:"levels"`
	Communities int      `json:"communities"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compare: ")
	var (
		algos     = flag.String("algos", "all", "comma-separated engine names, or \"all\" (see -engines-md)")
		graphs    = flag.String("graphs", "lfr,rmat,bter", "comma-separated graph families to sweep: lfr, rmat, bter")
		n         = flag.Int("n", 2000, "LFR/BTER vertex count")
		mu        = flag.Float64("mu", 0.3, "LFR mixing parameter")
		scale     = flag.Int("scale", 11, "R-MAT scale (2^scale vertices)")
		rho       = flag.Float64("rho", 0.4, "BTER target clustering coefficient")
		ranks     = flag.Int("ranks", 4, "rank-group size per run")
		threadsF  = flag.String("threads", "1", "comma-separated worker thread counts to sweep per cell, e.g. 1,2,4 (0 auto-selects the CPU count); speedup/efficiency are relative to the smallest count")
		seed      = flag.Uint64("seed", 1, "generator and engine seed")
		repeat    = flag.Int("repeat", 1, "runs per cell; wall-clock reports the fastest")
		transport = flag.String("transport", "mem", "transport kind: mem, sim or chaos")
		check     = flag.Bool("check", false, "run every cell with invariant checking")
		jsonlPath = flag.String("jsonl", "", "append one JSON record per cell to this file")
		mdPath    = flag.String("md", "", "write the markdown table to this file instead of stdout")
		smoke     = flag.Bool("smoke", false, "CI mode: tiny inputs, invariants on, assert every cell produced a valid partition")
		enginesMD = flag.Bool("engines-md", false, "print the registry algorithm table as markdown and exit")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("compare"))
		return
	}
	if *enginesMD {
		writeEnginesMD(os.Stdout)
		return
	}
	if *smoke {
		*n, *scale, *ranks, *repeat, *check = 300, 8, 2, 1, true
	}

	names := resolveAlgos(*algos)
	threadList, err := parseThreads(*threadsF)
	if err != nil {
		log.Fatal(err)
	}
	var cells []cell
	for _, fam := range splitList(*graphs) {
		el, truth, gname, err := makeGraph(fam, *n, *mu, *scale, *rho, *seed)
		if err != nil {
			log.Fatal(err)
		}
		nv := el.NumVertices()
		for _, name := range names {
			for _, threads := range threadList {
				c, err := runCell(name, gname, el, nv, truth, *ranks, threads, *seed, *repeat, *transport, *check)
				if err != nil {
					log.Fatalf("%s on %s: %v", name, gname, err)
				}
				if *smoke {
					if err := validateCell(c, nv, truth != nil); err != nil {
						log.Fatalf("smoke: %s on %s: %v", name, gname, err)
					}
				}
				cells = append(cells, c)
				fmt.Fprintf(os.Stderr, "done %-12s %-6s t=%d Q=%.4f wall=%.1fms\n", name, gname, threads, c.Q, c.WallMS)
			}
		}
	}
	if len(threadList) > 1 {
		annotateScaling(cells, threadList[0])
	}

	if *jsonlPath != "" {
		if err := writeJSONL(*jsonlPath, cells); err != nil {
			log.Fatal(err)
		}
	}
	out := os.Stdout
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	writeMarkdown(out, cells, len(threadList) > 1)
	if *smoke {
		fmt.Printf("smoke OK: %d cells valid (%d engines × %d graphs × %d thread counts)\n",
			len(cells), len(names), len(splitList(*graphs)), len(threadList))
	}
}

// parseThreads parses the -threads sweep list. 0 entries resolve to the
// machine's usable CPU count, mirroring `louvain -threads 0`.
func parseThreads(spec string) ([]int, error) {
	parts := splitList(spec)
	if len(parts) == 0 {
		return []int{1}, nil
	}
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -threads entry %q (want non-negative integers, e.g. 1,2,4)", p)
		}
		out = append(out, parlouvain.ResolveThreads(v))
	}
	return out, nil
}

// annotateScaling fills Speedup and Efficiency on every cell relative to the
// same (graph, algo) cell at the baseline thread count.
func annotateScaling(cells []cell, baseThreads int) {
	base := map[string]float64{}
	for _, c := range cells {
		if c.Threads == baseThreads {
			base[c.Graph+"\x00"+c.Algo] = c.WallMS
		}
	}
	for i := range cells {
		b, ok := base[cells[i].Graph+"\x00"+cells[i].Algo]
		if !ok || b <= 0 || cells[i].WallMS <= 0 {
			continue
		}
		sp := b / cells[i].WallMS
		eff := sp * float64(baseThreads) / float64(cells[i].Threads)
		cells[i].Speedup, cells[i].Efficiency = &sp, &eff
	}
}

// resolveAlgos expands "all" to the registry and validates explicit names
// early so a typo fails before any graph generation.
func resolveAlgos(spec string) []string {
	infos := parlouvain.Algorithms()
	if spec == "all" {
		names := make([]string, len(infos))
		for i, in := range infos {
			names[i] = in.Name
		}
		sort.Strings(names)
		return names
	}
	known := map[string]bool{}
	for _, in := range infos {
		known[in.Name] = true
	}
	names := splitList(spec)
	for _, name := range names {
		if !known[name] {
			log.Fatalf("unknown algorithm %q; registry has %s", name, registryList())
		}
	}
	return names
}

func registryList() string {
	var names []string
	for _, in := range parlouvain.Algorithms() {
		names = append(names, in.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// makeGraph generates one benchmark instance. truth is nil for families
// without a planted partition (R-MAT).
func makeGraph(fam string, n int, mu float64, scale int, rho float64, seed uint64) (parlouvain.EdgeList, []parlouvain.V, string, error) {
	switch fam {
	case "lfr":
		el, truth, err := parlouvain.LFR(parlouvain.DefaultLFR(n, mu, seed))
		return el, truth, "lfr", err
	case "rmat":
		el, err := parlouvain.RMAT(parlouvain.DefaultRMAT(scale, seed))
		return el, nil, "rmat", err
	case "bter":
		el, truth, err := parlouvain.BTER(parlouvain.DefaultBTER(n, rho, seed))
		return el, truth, "bter", err
	default:
		return nil, nil, "", fmt.Errorf("unknown graph family %q (want lfr, rmat or bter)", fam)
	}
}

// runCell measures one engine on one graph: repeat runs, fastest wall-clock,
// quality metrics from the last result (identical across repeats — the
// engines are deterministic for a fixed seed).
func runCell(name, gname string, el parlouvain.EdgeList, n int, truth []parlouvain.V,
	ranks, threads int, seed uint64, repeat int, transport string, check bool) (cell, error) {
	var res *parlouvain.AlgoResult
	best := time.Duration(math.MaxInt64)
	for i := 0; i < repeat; i++ {
		r, err := parlouvain.DetectAlgo(name, el, parlouvain.AlgoOptions{
			Ranks:           ranks,
			Transport:       transport,
			Threads:         threads,
			Seed:            seed,
			CheckInvariants: check,
		})
		if err != nil {
			return cell{}, err
		}
		if r.Duration < best {
			best = r.Duration
		}
		res = r
	}
	c := cell{
		Graph:       gname,
		Algo:        name,
		Threads:     threads,
		N:           n,
		Edges:       res.NumEdges,
		Q:           res.Q,
		WallMS:      float64(best.Microseconds()) / 1000,
		CommBytes:   res.CommBytes,
		CommRounds:  res.CommRounds,
		Levels:      len(res.Levels),
		Communities: res.Communities(),
	}
	if truth != nil {
		sim, err := parlouvain.CompareAssignments(res.Assignment, truth)
		if err != nil {
			return cell{}, err
		}
		c.NMI, c.ARI = &sim.NMI, &sim.ARI
	}
	return c, nil
}

// validateCell is the -smoke assertion set: a full-length assignment, a
// sane community count, finite metrics.
func validateCell(c cell, n int, hasTruth bool) error {
	if c.Communities < 1 || c.Communities > n {
		return fmt.Errorf("%d communities over %d vertices", c.Communities, n)
	}
	if math.IsNaN(c.Q) || math.IsInf(c.Q, 0) || c.Q < -0.5 || c.Q > 1 {
		return fmt.Errorf("modularity %v out of range", c.Q)
	}
	if c.Levels < 1 {
		return fmt.Errorf("no level trajectory")
	}
	if hasTruth {
		if c.NMI == nil || math.IsNaN(*c.NMI) || *c.NMI < 0 {
			return fmt.Errorf("missing or invalid NMI")
		}
	}
	return nil
}

func writeJSONL(path string, cells []cell) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, c := range cells {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeMarkdown(w *os.File, cells []cell, sweep bool) {
	if sweep {
		fmt.Fprintln(w, "| Graph | Algorithm | Threads | Q | NMI | Wall (ms) | Speedup | Efficiency | Levels | Communities |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
		for _, c := range cells {
			fmt.Fprintf(w, "| %s | %s | %d | %.4f | %s | %.1f | %s | %s | %d | %d |\n",
				c.Graph, c.Algo, c.Threads, c.Q, fmtOpt(c.NMI),
				c.WallMS, fmtX(c.Speedup), fmtOpt(c.Efficiency), c.Levels, c.Communities)
		}
		return
	}
	fmt.Fprintln(w, "| Graph | Algorithm | Q | NMI | ARI | Wall (ms) | Comm (KiB) | Rounds | Levels | Communities |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, c := range cells {
		fmt.Fprintf(w, "| %s | %s | %.4f | %s | %s | %.1f | %.1f | %d | %d | %d |\n",
			c.Graph, c.Algo, c.Q, fmtOpt(c.NMI), fmtOpt(c.ARI),
			c.WallMS, float64(c.CommBytes)/1024, c.CommRounds, c.Levels, c.Communities)
	}
}

// fmtX renders a speedup factor, e.g. "1.83x".
func fmtX(v *float64) string {
	if v == nil {
		return ""
	}
	return fmt.Sprintf("%.2fx", *v)
}

// fmtOpt renders an optional metric, blank when the graph has no truth.
func fmtOpt(v *float64) string {
	if v == nil {
		return ""
	}
	return fmt.Sprintf("%.4f", *v)
}

// writeEnginesMD prints the registry as a markdown table (the source of the
// README algorithm section).
func writeEnginesMD(w *os.File) {
	infos := parlouvain.Algorithms()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	fmt.Fprintln(w, "| Engine | Mode | Hierarchical | Monotone Q | Description |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, in := range infos {
		mode := "distributed"
		if in.Rank0 {
			mode = "rank-0"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n",
			in.Name, mode, yn(in.Hierarchical), yn(in.MonotoneQ), in.Description)
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
