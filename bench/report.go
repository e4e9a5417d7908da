package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// resultsDoc is what -out/results.json holds and -compare reads.
type resultsDoc struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// printRun prints one run's metrics by name with unit, and the
// distribution of each within-run sample.
func printRun(res *runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s seed=%d %s run: attempted=%d failed=%d digest=%s\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.GraphDigest)
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-28s %14.6g %-6s", m.Name, res.E2E[m.Name], m.Unit)
		if s, ok := res.Samples[m.Name]; ok {
			line += "  " + distribution(s, m.Unit)
		}
		fmt.Println(line)
	}
	for _, name := range []string{"request_ms", "write_ms"} {
		if s, ok := res.Samples[name]; ok {
			fmt.Printf("  %-28s %s\n", name, distribution(s, "ms"))
		}
	}
	if res.Traced {
		for _, m := range perLayer {
			if v, ok := res.Layer[m.Name]; ok {
				fmt.Printf("  %-36s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
}

// printSelfTimes prints where the traced pass's time went, by layer.
func printSelfTimes(workload string, spans []span) {
	byLayer := selfByLayer(spans)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("-- %s trace: %d spans, self time by layer\n", workload, len(spans))
	for _, l := range layers {
		fmt.Printf("  %-12s %10.1f ms\n", l, float64(byLayer[l])/1e6)
	}
}

// printWorkloadReport prints the across-run medians and quartiles of the
// end-to-end metrics, then the traced pass's per-layer metrics.
func printWorkloadReport(w workloadSpec, all []*runResult) {
	fmt.Printf("## %s — %s\n", w.Name, w.Why)
	fmt.Printf("  %-28s %-6s %3s %14s %14s %14s %8s\n", "end-to-end metric", "unit", "n", "median", "q1", "q3", "spread")
	for _, m := range endToEnd {
		vals := untracedValues(all, w.Name, m.Name)
		if len(vals) == 0 {
			continue
		}
		s := summarize(vals)
		fmt.Printf("  %-28s %-6s %3d %14.6g %14.6g %14.6g %7.2f%%\n", m.Name, m.Unit, s.N, s.Median, s.Q1, s.Q3, 100*s.spread())
	}
	for _, r := range all {
		if !r.Traced {
			continue
		}
		// The traced pass against the untraced runs: with spans recorded
		// outside the timed calls this difference is run-to-run noise, and
		// bench.trace_overhead_frac below is the tracer's measured cost.
		if plain := untracedValues(all, w.Name, "iter_s"); len(plain) > 0 {
			fmt.Printf("  iter_s traced %.6g s against untraced median %.6g s (%+.2f%%)\n",
				r.E2E["iter_s"], median(plain), 100*(r.E2E["iter_s"]/median(plain)-1))
		}
		fmt.Printf("  %-36s %-6s %14s   (traced pass, n=1)\n", "per-layer metric", "unit", "value")
		for _, m := range perLayer {
			if v, ok := r.Layer[m.Name]; ok {
				fmt.Printf("  %-36s %-6s %14.6g\n", m.Name, m.Unit, v)
			}
		}
	}
}

// checkRepeatability compares the runs of one (workload, seed): the graph
// digest and every exact count must be identical. serve-mixed is exempt
// from the digest and end-to-end counts because its engine commits as
// many iterations as fit beside the load.
func checkRepeatability(all []*runResult) []string {
	if len(all) < 2 || all[0].Workload == "serve-mixed" {
		return nil
	}
	var msgs []string
	first := all[0]
	exactDiffer := func(specs []metricSpec, a, b map[string]float64) {
		for _, m := range specs {
			va, okA := a[m.Name]
			vb, okB := b[m.Name]
			if m.Exact && okA && okB && va != vb {
				msgs = append(msgs, fmt.Sprintf("%s = %v differs from %v", m.Name, vb, va))
			}
		}
	}
	for _, r := range all[1:] {
		if r.GraphDigest != first.GraphDigest {
			msgs = append(msgs, fmt.Sprintf("graph_digest %s differs from %s", r.GraphDigest, first.GraphDigest))
		}
		exactDiffer(endToEnd, first.E2E, r.E2E)
		exactDiffer(perLayer, first.Layer, r.Layer)
	}
	return msgs
}

// verdict is -compare's judgement of one (metric, workload) pair.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "UNRESOLVED"
)

// judge applies a metric's bound to the baseline runs a and the
// candidate runs b. The change counts as a regression when b's median
// is worse than a's by more than the bound. Otherwise, where either
// side's interquartile spread exceeds the bound the pair is unresolved
// rather than unchanged — unless every run of b reads better than every
// run of a, which noise cannot explain.
func judge(m metricSpec, a, b []float64) (verdict, float64) {
	sa, sb := summarize(a), summarize(b)
	worse := (sb.Median - sa.Median) / math.Abs(sa.Median)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return regressed, worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return improved, worse
	case sa.spread() > m.Bound || sb.spread() > m.Bound:
		return unresolved, worse
	}
	return unchanged, worse
}

func loadResults(path string) (*resultsDoc, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// untracedValues collects an end-to-end metric's value from every
// untraced run of a workload.
func untracedValues(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r.E2E[metric])
		}
	}
	return out
}

// runCompare prints one row per (end-to-end metric, workload) and checks
// that the exact counts of the two documents agree. It returns the exit
// code: 1 when any pair regressed or is unresolved, or a count differs.
func runCompare(pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *resultsDoc
		if b, err = loadResults(pathB); err == nil {
			return compareDocs(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareDocs(a, b *resultsDoc) int {
	bad := 0
	fmt.Printf("%-14s %-20s %-6s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "spread a", "spread b", "worse", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := untracedValues(a.Runs, w.Name, m.Name), untracedValues(b.Runs, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := judge(m, va, vb)
			sa, sb := summarize(va), summarize(vb)
			fmt.Printf("%-14s %-20s %-6s %14.6g %14.6g %7.2f%% %7.2f%% %+6.2f%%  %s (bound %.1f%%)\n",
				w.Name, m.Name, m.Unit, sa.Median, sb.Median, 100*sa.spread(), 100*sb.spread(), 100*worse, v, 100*m.Bound)
			if v == regressed || v == unresolved {
				bad++
			}
		}
		if a.Seed == b.Seed && a.Seconds == b.Seconds {
			ra, rb := firstRun(a, w.Name), firstRun(b, w.Name)
			if ra != nil && rb != nil {
				for _, msg := range checkRepeatability([]*runResult{ra, rb}) {
					fmt.Printf("%-14s exact count: %s\n", w.Name, msg)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d pair(s) regressed, unresolved or differing in an exact count\n", bad)
		return 1
	}
	return 0
}

func firstRun(d *resultsDoc, workload string) *runResult {
	for _, r := range d.Runs {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}
