package experiments

import (
	"testing"

	"knnpc/internal/dataset"
	"knnpc/internal/pigraph"
)

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
