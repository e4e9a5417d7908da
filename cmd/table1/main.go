// Command table1 regenerates Table 1 of the paper: the number of
// partition load/unload operations performed when traversing the PI
// graph of six network datasets under the sequential and degree-based
// heuristics.
//
// The SNAP datasets are substituted by synthetic graphs with the exact
// node/edge counts of the paper and matching degree character (the
// module is offline); absolute counts therefore differ from the paper's,
// but the comparison across heuristics — the table's point — is
// preserved. The paper's printed values are shown alongside for
// reference.
//
// Usage:
//
//	table1 [-all] [-dataset name]
//
//	-all      also run the Max-Reuse planner (at the paper's two slots
//	          and one cursor) and the naive Edge-Order baseline
//	-dataset  run a single dataset (default: all six)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
)

func main() {
	all := flag.Bool("all", false, "include the Max-Reuse planner and the naive Edge-Order baseline")
	only := flag.String("dataset", "", "run a single dataset (paper name, e.g. \"Wiki-Vote\")")
	flag.Parse()
	if err := run(os.Stdout, *all, *only); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, all bool, only string) error {
	heuristics := pigraph.Heuristics()
	if all {
		heuristics = pigraph.AllHeuristics()
	}
	specs := dataset.PaperPresets()
	if only != "" {
		spec, ok := dataset.PresetByName(only)
		if !ok {
			return fmt.Errorf("unknown dataset %q", only)
		}
		specs = []dataset.GraphSpec{spec}
	}

	rows, err := Table1(specs, heuristics)
	if err != nil {
		return err
	}
	paper := PaperTable1()

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Datasets\tNodes\tEdges")
	for _, h := range heuristics {
		fmt.Fprintf(w, "\t%s\t(paper)", h.Name())
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d", row.Dataset, row.Nodes, row.Edges)
		for _, h := range heuristics {
			ref := "-"
			if p, ok := paper[row.Dataset][h.Name()]; ok {
				ref = fmt.Sprintf("%d", p)
			}
			fmt.Fprintf(w, "\t%d\t%s", row.Ops[h.Name()], ref)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
