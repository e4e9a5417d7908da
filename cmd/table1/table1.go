package main

import (
	"fmt"

	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
)

// Table1Row is one dataset row of the paper's Table 1.
type Table1Row struct {
	Dataset string
	Nodes   int
	Edges   int
	// Ops maps heuristic name to simulated load/unload operations.
	Ops map[string]int64
}

// PaperTable1 returns the values printed in the paper's Table 1,
// keyed by dataset then heuristic name.
func PaperTable1() map[string]map[string]int64 {
	return map[string]map[string]int64{
		dataset.WikiVote:     {"Seq.": 211856, "High-Low": 204706, "Low-High": 202290},
		dataset.GeneralRel:   {"Seq.": 34506, "High-Low": 32220, "Low-High": 31256},
		dataset.HighEnergy:   {"Seq.": 252754, "High-Low": 242132, "Low-High": 240872},
		dataset.AstroPhysics: {"Seq.": 420442, "High-Low": 400050, "Low-High": 401770},
		dataset.Email:        {"Seq.": 399604, "High-Low": 382928, "Low-High": 379312},
		dataset.Gnutella:     {"Seq.": 157040, "High-Low": 144072, "Low-High": 132710},
	}
}

// Table1 regenerates the paper's Table 1 over the given datasets and
// heuristics: each dataset graph is used as PI-graph structure and
// each heuristic's schedule is validated and simulated.
func Table1(specs []dataset.GraphSpec, heuristics []pigraph.Heuristic) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(specs))
	for _, spec := range specs {
		dg, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		pi, err := pigraph.FromDigraph(dg)
		if err != nil {
			return nil, fmt.Errorf("PI graph of %s: %w", spec.Name, err)
		}
		row := Table1Row{
			Dataset: spec.Name,
			Nodes:   spec.Nodes,
			Edges:   spec.Edges,
			Ops:     make(map[string]int64, len(heuristics)),
		}
		for _, h := range heuristics {
			schedule := h.Plan(pi)
			if err := schedule.Validate(pi); err != nil {
				return nil, fmt.Errorf("%s schedule on %s: %w", h.Name(), spec.Name, err)
			}
			// The zero options are the paper's setting: two slots, one cursor.
			sim, err := schedule.Simulate(pigraph.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("simulate %s on %s: %w", h.Name(), spec.Name, err)
			}
			row.Ops[h.Name()] = sim.Ops()
		}
		rows = append(rows, row)
	}
	return rows, nil
}
