package main

import (
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
)

// smallSpecs returns downsized dataset specs so Table1 runs fast under
// test; the full presets run under `go run ./cmd/table1`.
func smallSpecs() []dataset.GraphSpec {
	return []dataset.GraphSpec{
		{Name: "small-skewed", Nodes: 400, Edges: 3000, Alpha: 0.8, Seed: 1},
		{Name: "small-flat", Nodes: 400, Edges: 1200, Alpha: 0.1, Seed: 2},
	}
}

func TestTable1Rows(t *testing.T) {
	rows, err := Table1(smallSpecs(), pigraph.Heuristics())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		seq, hl, lh := row.Ops["Seq."], row.Ops["High-Low"], row.Ops["Low-High"]
		if seq == 0 || hl == 0 || lh == 0 {
			t.Fatalf("%s: missing ops: %+v", row.Dataset, row.Ops)
		}
		if hl > seq || lh > seq {
			t.Errorf("%s: degree heuristics should not lose to sequential (%d/%d vs %d)",
				row.Dataset, hl, lh, seq)
		}
	}
}

func TestPaperTable1Shape(t *testing.T) {
	paper := PaperTable1()
	if len(paper) != 6 {
		t.Fatalf("paper table should have 6 datasets, has %d", len(paper))
	}
	for ds, ops := range paper {
		seq := ops["Seq."]
		for h, v := range ops {
			if v <= 0 {
				t.Errorf("%s/%s: non-positive ops", ds, h)
			}
			if h != "Seq." && v >= seq {
				t.Errorf("%s: paper reports %s (%d) beating Seq. (%d)?", ds, h, v, seq)
			}
		}
	}
}

// TestTable1GoldenGenRel pins the exact operation counts of the
// smallest Table 1 dataset. The generator and every heuristic are
// seeded and deterministic, so these integers must never drift between
// runs or platforms; a change here means the reproduction's reported
// numbers changed: rerun `go run ./cmd/table1 -all` and update README's
// Table 1 section.
func TestTable1GoldenGenRel(t *testing.T) {
	spec, ok := dataset.PresetByName(dataset.GeneralRel)
	if !ok {
		t.Fatal("missing preset")
	}
	rows, err := Table1([]dataset.GraphSpec{spec}, pigraph.AllHeuristics())
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]int64{
		"Seq.":       36326,
		"High-Low":   33448,
		"Low-High":   33430,
		"Max-Reuse":  28936,
		"Edge-Order": 57474, // 57496 under LRU eviction
	}
	if len(rows[0].Ops) != len(golden) {
		t.Errorf("%d heuristics ran, %d have goldens", len(rows[0].Ops), len(golden))
	}
	for h, want := range golden {
		if got := rows[0].Ops[h]; got != want {
			t.Errorf("%s: ops = %d, want golden %d (if intentional, rerun `go run ./cmd/table1 -all` and update README's Table 1 section)", h, got, want)
		}
	}
}
