package main

import "testing"

func TestJudgeAppliesBoundAndReportsUnresolved(t *testing.T) {
	lower := metricSpec{Name: "iter_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "recall_at_k", Better: "higher", Bound: 0.01}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.70, 1.00, 1.30, 0.85, 1.15} // interquartile spread 45 %
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, unchanged},
		{"5 % slower is inside the bound", lower, steady, []float64{1.05, 1.06, 1.04, 1.05, 1.05}, unchanged},
		{"20 % slower", lower, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, regressed},
		{"every run faster", lower, steady, []float64{0.90, 0.91, 0.89, 0.90, 0.92}, improved},
		{"noise wider than the bound", lower, noisy, noisy, unresolved},
		{"noisy baseline, steady candidate", lower, noisy, steady, unresolved},
		{"noisy but every run faster", lower, noisy, []float64{0.5, 0.6, 0.55, 0.52, 0.58}, improved},
		{"noisy and far slower", lower, noisy, []float64{2, 2.1, 1.9, 2, 2}, regressed},
		{"recall down 2 %", higher, []float64{0.80, 0.80, 0.80}, []float64{0.784, 0.784, 0.784}, regressed},
		{"recall up", higher, []float64{0.80, 0.80, 0.80}, []float64{0.81, 0.81, 0.81}, improved},
		{"recall down 0.5 %", higher, []float64{0.80, 0.80, 0.80}, []float64{0.796, 0.796, 0.796}, unchanged},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCheckRepeatabilityComparesDigestAndExactCounts(t *testing.T) {
	mk := func(digest string, ops, scored, wall float64) *runResult {
		return &runResult{
			Workload: "iter-cpu", GraphDigest: digest,
			E2E:   map[string]float64{"ops_per_iter": ops, "recall_at_k": 0.5, "iter_s": wall},
			Layer: map[string]float64{"core.tuples_scored": scored, "core.p4_score_ms": wall},
		}
	}
	if msgs := checkRepeatability([]*runResult{mk("a", 56, 1000, 1.0), mk("a", 56, 1000, 1.3)}); len(msgs) != 0 {
		t.Errorf("timings may differ between runs: %v", msgs)
	}
	if msgs := checkRepeatability([]*runResult{mk("a", 56, 1000, 1), mk("b", 57, 1001, 1)}); len(msgs) != 3 {
		t.Errorf("want digest, ops_per_iter and core.tuples_scored reported, got %v", msgs)
	}
	timed := []*runResult{mk("a", 56, 1000, 1), mk("b", 56, 1001, 1)}
	timed[0].Workload, timed[1].Workload = "serve-mixed", "serve-mixed"
	if msgs := checkRepeatability(timed); len(msgs) != 0 {
		t.Errorf("serve-mixed commits as many iterations as fit: %v", msgs)
	}
}
