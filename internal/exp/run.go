package exp

import (
	"fmt"
	"io"
	"sort"
)

// Spec describes one reproducible experiment.
type Spec struct {
	Name  string
	Paper string // which table/figure of the paper it regenerates
	Run   func(sizeFactor float64) ([]Table, error)
}

// Specs returns every experiment, keyed by the name accepted by
// cmd/experiments.
func Specs() map[string]Spec {
	return map[string]Spec{
		"table1": {Name: "table1", Paper: "Table I", Run: func(sf float64) ([]Table, error) { return Table1(sf) }},
		"fig2":   {Name: "fig2", Paper: "Figure 2", Run: func(sf float64) ([]Table, error) { return Fig2(sf, repeatsFor(sf)) }},
		"fig4":   {Name: "fig4", Paper: "Figure 4", Run: func(sf float64) ([]Table, error) { return Fig4(sf, 8) }},
		"fig5":   {Name: "fig5", Paper: "Figure 5", Run: func(sf float64) ([]Table, error) { return Fig5(sf, 8) }},
		"fig6":   {Name: "fig6", Paper: "Figure 6", Run: func(sf float64) ([]Table, error) { return Fig6(sf) }},
		"fig7":   {Name: "fig7", Paper: "Figure 7", Run: func(sf float64) ([]Table, error) { return Fig7(sf, nil, nil) }},
		"fig8":   {Name: "fig8", Paper: "Figure 8", Run: func(sf float64) ([]Table, error) { return Fig8(sf, 8) }},
		"fig9":   {Name: "fig9", Paper: "Figure 9", Run: func(sf float64) ([]Table, error) { return Fig9(sf, nil) }},
		"table3": {Name: "table3", Paper: "Table III", Run: func(sf float64) ([]Table, error) { return Table3(sf, 8) }},
		"table4": {Name: "table4", Paper: "Table IV", Run: func(sf float64) ([]Table, error) { return Table4(sf, nil) }},
		"baselines": {Name: "baselines", Paper: "extension (related-work baseline)",
			Run: func(sf float64) ([]Table, error) { return Baselines(sf, 8) }},
	}
}

func repeatsFor(sizeFactor float64) int {
	if sizeFactor < 0.5 {
		return 3
	}
	return 10
}

// Names returns the experiment names in a stable order.
func Names() []string {
	specs := Specs()
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunByName executes one experiment (or "all") and prints its tables.
func RunByName(w io.Writer, name string, sizeFactor float64) error {
	if name == "all" {
		for _, n := range Names() {
			if err := RunByName(w, n, sizeFactor); err != nil {
				return err
			}
		}
		return nil
	}
	spec, ok := Specs()[name]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	fmt.Fprintf(w, "\n#### %s (reproduces %s) ####\n", spec.Name, spec.Paper)
	tables, err := spec.Run(sizeFactor)
	if err != nil {
		return err
	}
	FprintAll(w, tables)
	return nil
}
