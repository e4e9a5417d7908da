package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrefetchLeavesRecommendationsUnchanged runs the example at the
// paper's serial phase 4 and pipelined with two loads of lookahead:
// prefetching moves only when a partition is loaded, so every line
// after the run summary must be byte-identical.
func TestPrefetchLeavesRecommendationsUnchanged(t *testing.T) {
	results := make([]string, 2)
	for i, prefetch := range []int{0, 2} {
		var out bytes.Buffer
		if err := run(&out, prefetch); err != nil {
			t.Fatalf("run(prefetch=%d): %v", prefetch, err)
		}
		summary, rest, ok := strings.Cut(out.String(), "\n")
		if !ok || !strings.HasPrefix(summary, "ran ") {
			t.Fatalf("prefetch=%d: output does not open with the run summary:\n%s", prefetch, out.String())
		}
		if strings.Count(rest, "top recommendations") != 3 {
			t.Fatalf("prefetch=%d: want 3 recommendation lines, got:\n%s", prefetch, rest)
		}
		results[i] = rest
	}
	if results[0] != results[1] {
		t.Errorf("recommendations differ between -prefetch 0 and -prefetch 2:\n--- 0:\n%s--- 2:\n%s", results[0], results[1])
	}
}
