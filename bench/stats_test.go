package main

import (
	"math"
	"testing"
)

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// for 1..10 that gives 2.75, 5.5 and 8.25.
func TestQuantileMatchesPythonExclusiveRule(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := summarize(v)
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("summarize(1..10) = %+v", s)
	}
	if got, want := s.spread(), 5.5/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// Three values: the quartiles are the ends.
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize(1,2,3) = %+v", s)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample must be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g", got)
	}
}
