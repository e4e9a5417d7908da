package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by the rule Python's
// statistics.quantiles uses by default (exclusive: position q·(n+1),
// linear interpolation, clamped to the ends) — the same rule the driver
// applies to a set of runs, so the spreads printed here are its spreads.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is a sample's count, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// spread is the interquartile distance as a share of the median, the
// driver's measure of run-to-run noise.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(values []float64) float64 { return summarize(values).Median }

// tailPercentiles are the percentiles a latency sample may be reported
// at, lowest first.
var tailPercentiles = []struct {
	p          float64
	beyondPerK int // samples per thousand that lie beyond p
}{{90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// pickTail returns the highest percentile that still has at least ten
// samples beyond it, or 0 when even the lowest candidate does not (the
// sample then supports a median only).
func pickTail(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n*t.beyondPerK >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// distribution renders one within-run sample as "n, median, tail".
func distribution(values []float64, unit string) string {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := fmt.Sprintf("n=%d p50=%.4g%s", len(s), quantile(s, 0.5), unit)
	if p := pickTail(len(s)); p > 0 {
		out += fmt.Sprintf(" p%g=%.4g%s", p, percentile(s, p), unit)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
