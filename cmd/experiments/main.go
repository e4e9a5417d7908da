// Command experiments regenerates every experiment of the reproduction
// in one run and prints Markdown tables — the source material of
// EXPERIMENTS.md. It covers the paper's Table 1, the Figure 1 pipeline
// breakdown, and the four future-work sweeps (graph size, memory,
// disk models, threads).
//
// Usage:
//
//	experiments [-quick]
//
//	-quick shrinks the sweeps for a fast smoke run.
//
// The sweeps cover the paper's Table 1, the Figure 1 phase breakdown,
// and FW-1..FW-10 (graph size, memory, disk models, scoring threads,
// prefetch depth, the three-stream pipeline ablation, sharded-tape
// phase-4 workers, the network-store shard-count sweep, the parallel
// build-side worker sweep, and the serving-tier replica-count sweep
// under fixed Zipfian load).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"knnpc/internal/dataset"
	"knnpc/internal/experiments"
	"knnpc/internal/pigraph"
)

func main() {
	quick := flag.Bool("quick", false, "shrink the sweeps for a fast smoke run")
	flag.Parse()
	if err := run(os.Stdout, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, quick bool) error {
	ctx := context.Background()

	fmt.Fprintln(out, "## Table 1 — PI-graph traversal load/unload operations")
	fmt.Fprintln(out)
	specs := dataset.PaperPresets()
	if quick {
		specs = specs[:2]
	}
	rows, err := experiments.Table1(specs, pigraph.AllHeuristics())
	if err != nil {
		return err
	}
	paper := experiments.PaperTable1()
	fmt.Fprintln(out, "| Dataset | Nodes | Edges | Seq. | paper | High-Low | paper | Low-High | paper | Max-Reuse | Edge-Order |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, row := range rows {
		p := paper[row.Dataset]
		fmt.Fprintf(out, "| %s | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			row.Dataset, row.Nodes, row.Edges,
			row.Ops["Seq."], p["Seq."],
			row.Ops["High-Low"], p["High-Low"],
			row.Ops["Low-High"], p["Low-High"],
			row.Ops["Max-Reuse"], row.Ops["Edge-Order"])
	}
	fmt.Fprintln(out)

	sizes := []int{1000, 2000, 5000}
	memUsers, ms := 3000, []int{2, 4, 8, 16, 32}
	thrUsers, workers := 3000, []int{1, 2, 4, 8}
	if quick {
		sizes = []int{200, 400}
		memUsers, ms = 300, []int{2, 4}
		thrUsers, workers = 300, []int{1, 2}
	}

	fmt.Fprintln(out, "## FW-1 — iteration time vs graph size")
	fmt.Fprintln(out)
	sizePoints, err := experiments.GraphSizeSweep(ctx, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Iteration time | Load/unload ops |")
	fmt.Fprintln(out, "|---|---|---|")
	for _, p := range sizePoints {
		fmt.Fprintf(out, "| %s | %v | %d |\n", p.Label, p.IterTime, p.Ops)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-2 — memory (partition count) sweep")
	fmt.Fprintln(out)
	memPoints, err := experiments.MemorySweep(ctx, memUsers, ms)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Iteration time | Load/unload ops | Bytes read/iter |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, p := range memPoints {
		fmt.Fprintf(out, "| %s | %v | %d | %d |\n", p.Label, p.IterTime, p.Ops, p.IO.BytesRead)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-3 — disk model projection (one iteration's I/O)")
	fmt.Fprintln(out)
	if len(memPoints) > 0 {
		io := memPoints[len(memPoints)-1].IO
		proj := experiments.DiskProjection(io)
		fmt.Fprintln(out, "| Model | Modeled device time |")
		fmt.Fprintln(out, "|---|---|")
		for _, name := range []string{"hdd", "ssd", "nvme"} {
			fmt.Fprintf(out, "| %s | %v |\n", name, proj[name])
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintln(out, "## FW-4 — thread scaling (phase-4 scoring workers)")
	fmt.Fprintln(out)
	thrPoints, err := experiments.ThreadSweep(ctx, thrUsers, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Iteration time |")
	fmt.Fprintln(out, "|---|---|")
	for _, p := range thrPoints {
		fmt.Fprintf(out, "| %s | %v |\n", p.Label, p.IterTime)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-5 — pipelined phase 4 (prefetch depth, on-disk state)")
	fmt.Fprintln(out)
	pfUsers, depths, pfWorkers := 2000, []int{0, 1, 2, 4}, 4
	if quick {
		pfUsers, depths, pfWorkers = 300, []int{0, 1}, 2
	}
	pfPoints, err := experiments.PrefetchSweep(ctx, pfUsers, depths, pfWorkers, "ssd")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Phase-4 time | Iteration time | Load/unload ops | Prefetched loads |")
	fmt.Fprintln(out, "|---|---|---|---|---|")
	for _, p := range pfPoints {
		fmt.Fprintf(out, "| %s | %v | %v | %d | %d |\n", p.Label, p.ScoreTime, p.IterTime, p.Ops, p.PrefetchedLoads)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-6 — three-stream phase-4 pipeline ablation (emulated HDD)")
	fmt.Fprintln(out)
	plUsers, plDepth, plWorkers := 2000, 2, 4
	if quick {
		plUsers, plDepth, plWorkers = 300, 1, 2
	}
	plPoints, err := experiments.PipelineSweep(ctx, plUsers, plDepth, plWorkers, "hdd")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Phase-4 time | Load/unload ops | Prefetched loads | Async unloads | Shard bytes ahead |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	for _, p := range plPoints {
		fmt.Fprintf(out, "| %s | %v | %d | %d | %d | %d |\n",
			p.Label, p.ScoreTime, p.Ops, p.PrefetchedLoads, p.AsyncUnloads, p.PrefetchedShardBytes)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-7 — sharded-tape phase-4 workers (emulated HDD)")
	fmt.Fprintln(out)
	ewUsers, ewCounts := 2000, []int{1, 2, 4}
	if quick {
		ewUsers, ewCounts = 300, []int{1, 2}
	}
	ewPoints, err := experiments.ExecWorkerSweep(ctx, ewUsers, ewCounts, "hdd")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Phase-4 time | Summed load/unload ops | Prefetched loads | Async unloads |")
	fmt.Fprintln(out, "|---|---|---|---|---|")
	for _, p := range ewPoints {
		fmt.Fprintf(out, "| %s | %v | %d | %d | %d |\n",
			p.Label, p.ScoreTime, p.Ops, p.PrefetchedLoads, p.AsyncUnloads)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-8 — network-store shard count (per-shard spindles vs the shared one)")
	fmt.Fprintln(out)
	nsUsers, nsWorkers, nsShards := 2000, 4, []int{1, 2, 4}
	if quick {
		nsUsers, nsWorkers, nsShards = 300, 2, []int{1, 2}
	}
	nsPoints, err := experiments.NetstoreSweep(ctx, nsUsers, nsWorkers, nsShards, "hdd")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Phase-4 time | Summed load/unload ops | Per-shard device time (modeled) |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, p := range nsPoints {
		devices := "—"
		if len(p.Devices) > 0 {
			parts := make([]string, 0, len(p.Devices))
			for _, d := range p.Devices {
				parts = append(parts, fmt.Sprintf("%s %v", d.Name, d.Modeled.Round(time.Millisecond)))
			}
			devices = strings.Join(parts, ", ")
		}
		fmt.Fprintf(out, "| %s | %v | %d | %s |\n", p.Label, p.ScoreTime, p.Ops, devices)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-9 — parallel build side (phases 1–2 across BuildWorkers)")
	fmt.Fprintln(out)
	bwUsers, bwCounts, bwShards := 2000, []int{1, 2, 4}, 4
	if quick {
		bwUsers, bwCounts, bwShards = 300, []int{1, 2}, 2
	}
	bwPoints, err := experiments.BuildWorkerSweep(ctx, bwUsers, bwCounts, bwShards, "hdd")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Phase-1 time | Phase-2 time | Phase-4 time | Iteration time | Load/unload ops |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	for _, p := range bwPoints {
		fmt.Fprintf(out, "| %s | %v | %v | %v | %v | %d |\n",
			p.Label, p.PartitionTime, p.TuplesTime, p.ScoreTime, p.IterTime, p.Ops)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## FW-10 — serving-tier replica count × Zipf skew")
	fmt.Fprintln(out)
	rpUsers, rpCounts, rpSkews, rpOps := 2000, []int{0, 1, 2, 4}, []float64{1.05, 1.1, 1.4}, 2000
	if quick {
		rpUsers, rpCounts, rpSkews, rpOps = 300, []int{0, 1}, []float64{1.1}, 400
	}
	rpPoints, err := experiments.ReplicaSweep(ctx, rpUsers, rpCounts, rpSkews, rpOps)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Configuration | Read p50 | Read p99 | Ops | Misses |")
	fmt.Fprintln(out, "|---|---|---|---|---|")
	for _, p := range rpPoints {
		fmt.Fprintf(out, "| %s | %v | %v | %d | %d |\n",
			p.Label, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), p.Ops, p.Misses)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "## Convergence — engine recall trajectory vs NN-Descent baseline")
	fmt.Fprintln(out)
	convUsers, convIters := 800, 10
	if quick {
		convUsers, convIters = 150, 4
	}
	conv, err := experiments.Convergence(ctx, experiments.ConvergenceConfig{
		Users: convUsers, K: 8, Partitions: 8, Iterations: convIters, Seed: 7,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| Iteration | Recall | Edge changes | Tuples scored |")
	fmt.Fprintln(out, "|---|---|---|---|")
	for _, p := range conv.Engine {
		fmt.Fprintf(out, "| %d | %.4f | %d | %d |\n", p.Iteration, p.Recall, p.EdgeChanges, p.ScoredTuples)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "NN-Descent baseline: recall %.4f with %d similarity evaluations (brute force: %d).\n",
		conv.NNDescentRecall, conv.NNDescentSimEvals, conv.BruteForceEvals)
	return nil
}
