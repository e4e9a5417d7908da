package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false, "Gen. Rel."); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Gen. Rel.") {
		t.Errorf("output missing dataset row:\n%s", out)
	}
	if !strings.Contains(out, "Seq.") || !strings.Contains(out, "Low-High") {
		t.Errorf("output missing heuristic columns:\n%s", out)
	}
	if strings.Contains(out, "Wiki-Vote") {
		t.Error("single-dataset run should not include other datasets")
	}
	// Paper reference values must appear.
	if !strings.Contains(out, "34506") {
		t.Errorf("output missing the paper's Seq. value for Gen. Rel.:\n%s", out)
	}
}

func TestRunAllHeuristicsFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, true, "Gen. Rel."); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"Max-Reuse", "Edge-Order"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("-all output missing %s column", col)
		}
	}
	for _, col := range []string{"Greedy-Reuse", "Cost-Aware"} {
		if strings.Contains(buf.String(), col) {
			t.Errorf("-all output still has the deleted %s column", col)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false, "LiveJournal"); err == nil {
		t.Error("unknown dataset should fail")
	}
}
