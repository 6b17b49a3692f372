package exp

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// All experiment tests run at a small size factor; they verify both that
// the harness executes and that the paper's qualitative shape holds.

func cell(t *testing.T, tab Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tab.Title, row, col)
	}
	return tab.Rows[row][col]
}

func cellF(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %q cell (%d,%d) = %q not a number", tab.Title, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestTable1(t *testing.T) {
	tabs, err := Table1(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if len(tabs[0].Rows) != 9 {
		t.Errorf("stand-in rows = %d, want 9", len(tabs[0].Rows))
	}
	if len(tabs[1].Rows) != 3 {
		t.Errorf("synthetic rows = %d, want 3", len(tabs[1].Rows))
	}
}

func TestStandinByName(t *testing.T) {
	if _, err := StandinByName("Amazon"); err != nil {
		t.Error(err)
	}
	if _, err := StandinByName("nope"); err == nil {
		t.Error("unknown stand-in accepted")
	}
}

func TestFig2DecayShape(t *testing.T) {
	tabs, err := Fig2(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	summary := tabs[len(tabs)-1]
	if len(summary.Rows) != len(Fig2Configs()) {
		t.Fatalf("summary rows = %d", len(summary.Rows))
	}
	for i := range summary.Rows {
		p1 := cellF(t, summary, i, 1)
		p2 := cellF(t, summary, i, 2)
		if p1 < 0.2 || p1 > 3 {
			t.Errorf("config %d: fitted p1 = %v outside plausible range", i, p1)
		}
		if p2 <= 0 || p2 > 20 {
			t.Errorf("config %d: fitted p2 = %v outside plausible range", i, p2)
		}
	}
	// First trace table: observed fraction decays from near 1.
	first := tabs[0]
	if f := cellF(t, first, 0, 1); f < 0.5 {
		t.Errorf("first-iteration move fraction %v, want > 0.5", f)
	}
	lastRow := len(first.Rows) - 1
	if f0, fl := cellF(t, first, 0, 1), cellF(t, first, lastRow, 1); fl > f0/2 {
		t.Errorf("move fraction did not decay: first %v last %v", f0, fl)
	}
}

func TestFitDecayRecoversParameters(t *testing.T) {
	// Generate exact samples of 0.9*exp(-x/3) and re-fit.
	var iters []int
	var fr []float64
	for i := 1; i <= 10; i++ {
		iters = append(iters, i)
		fr = append(fr, 0.9*math.Exp(-float64(i)/3))
	}
	p1, p2 := FitDecay(iters, fr)
	if p1 < 0.89 || p1 > 0.91 || p2 < 2.9 || p2 > 3.1 {
		t.Errorf("fit = (%v,%v), want (0.9,3)", p1, p2)
	}
	// Degenerate input falls back to defaults.
	p1, p2 = FitDecay(nil, nil)
	if p1 != 1 || p2 != 2 {
		t.Errorf("degenerate fit = (%v,%v)", p1, p2)
	}
}

func TestFig4HeuristicBeatsNaive(t *testing.T) {
	tabs, err := Fig4(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	qt := tabs[0]
	// Rows come in triples: sequential, heuristic, naive. Final Q is the
	// last column.
	col := len(qt.Header) - 1
	for i := 0; i+2 < len(qt.Rows); i += 3 {
		seqQ := cellF(t, qt, i, col)
		parQ := cellF(t, qt, i+1, col)
		naiveQ := cellF(t, qt, i+2, col)
		if parQ < seqQ-0.1 {
			t.Errorf("graph %s: heuristic Q %v far below sequential %v", qt.Rows[i][0], parQ, seqQ)
		}
		if naiveQ > parQ+0.05 {
			t.Errorf("graph %s: naive Q %v beats heuristic %v", qt.Rows[i][0], naiveQ, parQ)
		}
	}
}

func TestFig5DistributionsMatch(t *testing.T) {
	tabs, err := Fig5(0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty histogram", tab.Title)
		}
	}
}

func TestTable3SimilarityHigh(t *testing.T) {
	tabs, err := Table3(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	for i := range tab.Rows {
		nmi := cellF(t, tab, i, 1)
		nvd := cellF(t, tab, i, 3)
		ri := cellF(t, tab, i, 4)
		if nmi < 0.7 {
			t.Errorf("%s: NMI = %v, want high", tab.Rows[i][0], nmi)
		}
		if nvd > 0.4 {
			t.Errorf("%s: NVD = %v, want near 0", tab.Rows[i][0], nvd)
		}
		if ri < 0.9 {
			t.Errorf("%s: RI = %v, want near 1", tab.Rows[i][0], ri)
		}
	}
}

func TestFig6FibonacciBalances(t *testing.T) {
	tabs, err := Fig6(0.2)
	if err != nil {
		t.Fatal(err)
	}
	abc := tabs[0]
	// Row 0 fibonacci, row 3 concatenated. Max bin length comparison.
	fibMax := cellF(t, abc, 0, 6)
	catMax := cellF(t, abc, 3, 6)
	if fibMax > catMax {
		t.Errorf("fibonacci max bin %v worse than concatenated %v", fibMax, catMax)
	}
	// Load factor sweep monotone.
	dTab := tabs[1]
	prev := 1e18
	for i := range dTab.Rows {
		avg := cellF(t, dTab, i, 1)
		if avg > prev+1e-9 {
			t.Errorf("avg bin length not monotone in load factor sweep")
		}
		prev = avg
	}
	last := cellF(t, dTab, len(dTab.Rows)-1, 1)
	if last > 1.3 {
		t.Errorf("avg bin length at load 1/8 = %v, want near 1", last)
	}
}

func TestFig7ProducesSpeedups(t *testing.T) {
	tabs, err := Fig7(0.08, []int{1, 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		if len(tab.Rows) != len(fig7Graphs) {
			t.Errorf("%s: rows = %d", tab.Title, len(tab.Rows))
		}
		for i := range tab.Rows {
			if v := cellF(t, tab, i, 1); v <= 0 {
				t.Errorf("%s: non-positive speedup %v", tab.Title, v)
			}
		}
	}
}

func TestFig8BreakdownShape(t *testing.T) {
	tabs, err := Fig8(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := tabs[0]
	if len(a.Rows) != 2 {
		t.Fatalf("8a rows = %d", len(a.Rows))
	}
	// REFINE dominates RECONSTRUCTION.
	refineShare := strings.TrimSuffix(cell(t, a, 0, 2), "%")
	rv, err := strconv.ParseFloat(refineShare, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rv < 50 {
		t.Errorf("REFINE share = %v%%, want dominant", rv)
	}
	b := tabs[1]
	if len(b.Rows) == 0 {
		t.Error("8b has no inner iterations")
	}
}

func TestFig9WeakScalingGrows(t *testing.T) {
	tabs, err := Fig9(0.1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	weak := tabs[0]
	if len(weak.Rows) != 2 {
		t.Fatalf("weak rows = %d", len(weak.Rows))
	}
	// Edge count grows with ranks in weak scaling.
	e1 := cellF(t, weak, 0, 2)
	e2 := cellF(t, weak, 1, 2)
	if e2 <= e1 {
		t.Errorf("weak scaling |E| did not grow: %v -> %v", e1, e2)
	}
	// BTER: higher rho gives higher Q at matching rank count.
	bter := tabs[1]
	qCol := len(bter.Header) - 1
	qLow := cellF(t, bter, 0, qCol)
	qHigh := cellF(t, bter, 2, qCol)
	if qHigh <= qLow {
		t.Errorf("BTER Q not increasing with rho: %v vs %v", qLow, qHigh)
	}
}

func TestTable4ParallelFaster(t *testing.T) {
	tabs, err := Table4(0.12, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Modularity comparable.
	seqQ := cellF(t, tab, 0, 2)
	parQ := cellF(t, tab, 1, 2)
	if parQ < seqQ-0.1 {
		t.Errorf("parallel Q %v far below sequential %v", parQ, seqQ)
	}
}

func TestRunByName(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByName(&buf, "table1", 0.1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("output missing title")
	}
	if err := RunByName(&buf, "nope", 0.1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableFprint(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBaselinesShape(t *testing.T) {
	tabs, err := Baselines(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// Louvain (even rows) should match or beat LPA (odd rows) on Q.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		lq := cellF(t, tab, i, 2)
		pq := cellF(t, tab, i+1, 2)
		if pq > lq+0.05 {
			t.Errorf("%s: LPA Q %v beats Louvain %v", tab.Rows[i][0], pq, lq)
		}
	}
}
