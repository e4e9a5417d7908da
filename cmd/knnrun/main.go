// Command knnrun runs the full five-phase out-of-core KNN pipeline
// (the paper's Figure 1) on a synthetic clustered-profile workload and
// prints per-iteration phase timings, load/unload operations, and
// modeled HDD/SSD/NVMe disk time.
//
// Run `knnrun -help` for the flags; docs/OPERATIONS.md explains each
// flag and every column of the iteration rows.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
)

func main() {
	cfg := parseFlags(os.Args[1:])
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "knnrun:", err)
		os.Exit(1)
	}
}

// config is the parsed command line. The engine's own knobs bind
// straight into opts and its strategy names into names; what only
// knnrun itself consumes sits beside them.
type config struct {
	opts                core.Options
	names               core.Names
	users, items, iters int
	netstore            string
	dumpGraph           string
	cpuProfile          string
	recall              bool
}

func parseFlags(args []string) config {
	fs := flag.NewFlagSet("knnrun", flag.ExitOnError)
	var cfg config
	opts := &cfg.opts
	fs.IntVar(&cfg.users, "users", 2000, "number of users")
	fs.IntVar(&cfg.items, "items", 5000, "item-space size")
	fs.IntVar(&opts.K, "k", 10, "neighbors per user")
	fs.IntVar(&opts.NumPartitions, "m", 8, "number of partitions")
	fs.IntVar(&cfg.iters, "iters", 5, "maximum iterations")
	fs.IntVar(&opts.Workers, "workers", 1, "scoring goroutines")
	fs.IntVar(&opts.ExecWorkers, "execworkers", 1, "phase-4 tape workers (shard the traversal plan across this many executors)")
	fs.IntVar(&opts.BuildWorkers, "buildworkers", 1, "phase-1/2 build workers (parallel state construction and tuple producers; output identical at every count)")
	fs.IntVar(&opts.Slots, "slots", 2, "resident-partition budget S per worker")
	fs.IntVar(&opts.PrefetchDepth, "prefetch", 0, "async load lookahead depth (0 = serial phase 4)")
	fs.BoolVar(&opts.AsyncWriteback, "writeback", false, "write partition state back asynchronously")
	fs.IntVar(&opts.ShardPrefetch, "shardahead", 0, "tuple-shard read lookahead in pair steps (0 = sync reads)")
	var heuristics []string
	for _, h := range pigraph.AllHeuristics() {
		heuristics = append(heuristics, strconv.Quote(h.Name()))
	}
	fs.StringVar(&cfg.names.Heuristic, "heuristic", "", "PI traversal heuristic: "+strings.Join(heuristics, ", ")+" (empty = the engine default)")
	fs.StringVar(&cfg.names.Partitioner, "partitioner", "greedy", "partitioning strategy")
	fs.StringVar(&cfg.names.Similarity, "sim", "cosine", "similarity measure")
	fs.BoolVar(&opts.OnDisk, "ondisk", true, "use real files for partition state")
	fs.StringVar(&cfg.names.DiskModel, "emulate", "", "enforce a disk model's latency on state I/O: hdd, ssd, nvme (empty = none)")
	fs.StringVar(&cfg.netstore, "netstore", "", `sharded network state store: "shards=N" (loopback cluster) or a comma-separated statestore address list (empty = in-process store)`)
	fs.BoolVar(&opts.PublishViews, "serveviews", false, "publish serve views to the network store after each iteration (requires -netstore)")
	fs.Float64Var(&opts.StalenessThreshold, "staleness", 0, "run a full iteration only at drift ≥ this score; add/delete deltas apply every pass (0 = always iterate)")
	fs.IntVar(&opts.StoreRetries, "iterretries", 0, "the engine's store-retry budget: restarts of an iteration's compute, or re-issues of a drain or publish, after a transient store failure (network store runs; 0 = the engine default of 3)")
	fs.StringVar(&cfg.dumpGraph, "dumpgraph", "", "write the final KNN graph to this file (deterministic text, diffable across runs)")
	fs.BoolVar(&opts.ProfilesOnDisk, "profilesondisk", false, "keep the canonical profile collection on disk too")
	fs.BoolVar(&cfg.recall, "recall", false, "also compute exact KNN and report recall")
	fs.StringVar(&opts.ScratchDir, "scratch", "", "directory to make the engine's private scratch directory in (empty = temp)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of every iteration after the first to this file")
	fs.Int64Var(&opts.Seed, "seed", 1, "RNG seed")
	fs.Parse(args)
	return cfg
}

func run(out io.Writer, cfg config) error {
	opts := cfg.opts
	err := opts.Resolve(cfg.names)
	if err != nil {
		return err
	}
	if opts.NetStoreShards, opts.NetStoreAddrs, err = parseNetStore(cfg.netstore); err != nil {
		return err
	}

	fmt.Fprintf(out, "generating %d users × %d items (clustered ratings)...\n", cfg.users, cfg.items)
	vecs, _, err := dataset.RatingsProfiles(cfg.users, cfg.items, 25, 8, opts.Seed)
	if err != nil {
		return err
	}
	store := profile.NewStoreFromVectors(vecs)

	eng, err := core.New(store, opts)
	if err != nil {
		return err
	}
	defer eng.Close()

	netDesc := "off"
	switch {
	case opts.NetStoreShards > 0:
		netDesc = fmt.Sprintf("loopback/%d-shards", opts.NetStoreShards)
	case len(opts.NetStoreAddrs) > 0:
		netDesc = fmt.Sprintf("external/%d-shards", len(opts.NetStoreAddrs))
	}
	fmt.Fprintf(out, "engine: k=%d m=%d heuristic=%s partitioner=%s sim=%s workers=%d execworkers=%d buildworkers=%d slots=%d prefetch=%d writeback=%v shardahead=%d ondisk=%v netstore=%s\n\n",
		opts.K, opts.NumPartitions, eng.Heuristic().Name(), opts.Partitioner.Name(), opts.Similarity.Name(), opts.Workers, opts.ExecWorkers, opts.BuildWorkers, opts.Slots, opts.PrefetchDepth, opts.AsyncWriteback, opts.ShardPrefetch, opts.OnDisk, netDesc)
	fmt.Fprintln(out, "iter  phase1(part)  phase2(tuples)  phase3(pi)  phase4(score)  phase5(upd)  ops  reads  attached  builds  writes  collected  shards  creates  prefetched  async-wb  state-allocs  budget-peak  changed  attempts")
	var profiling *os.File
	defer func() {
		if profiling != nil {
			pprof.StopCPUProfile()
			profiling.Close()
		}
	}()

	for i := 0; i < cfg.iters; i++ {
		// Every pass applies queued deltas first, as Engine.Run does;
		// with nothing queued that is a strict no-op.
		ds, err := eng.ApplyDeltas()
		if err != nil {
			// A publish failure happens after the commit already
			// landed: the pass's work is durable, only the pushed
			// serve views lag. Warn and keep iterating — the next
			// committed iteration republishes every view anyway.
			if !errors.Is(err, core.ErrPublishFailed) {
				return err
			}
			fmt.Fprintf(out, "delta: committed but view publish failed: %v\n", err)
		}
		if ds.Adds+ds.Upserts+ds.Deletes > 0 {
			fmt.Fprintf(out, "delta: %d adds, %d upserts, %d deletes (%d sim evals, %d views republished), max staleness %.3f\n",
				ds.Adds, ds.Upserts, ds.Deletes, ds.SimEvals, ds.Republished, eng.MaxStaleness())
		}
		if !eng.NeedsIteration() {
			fmt.Fprintf(out, "staleness %.3f below threshold %.3f; skipping full iteration\n",
				eng.MaxStaleness(), opts.StalenessThreshold)
			break
		}
		st, err := eng.Iterate(context.Background())
		if err != nil {
			// Same as the delta path's: the iteration is committed and
			// must not be re-run; only its pushed views lag.
			if !errors.Is(err, core.ErrPublishFailed) {
				return err
			}
			fmt.Fprintf(out, "iteration %d: committed but publish failed: %v\n", st.Iteration, err)
		}
		fmt.Fprintf(out, "%4d  %12v  %14v  %10v  %13v  %11v  %5d  %5d  %8d  %6d  %6d  %9d  %6d  %7d  %10d  %8d  %12d  %11d  %7d  %8d\n",
			st.Iteration, st.Phases.Partition, st.Phases.Tuples, st.Phases.PIGraph,
			st.Phases.Score, st.Phases.Update, st.Ops(), st.MediumReads, st.Attaches,
			st.StateBuilds, st.StateWrites, st.CollectReads, st.ShardReads, st.IO.Creates, st.PrefetchedLoads, st.AsyncUnloads,
			st.StateAllocs, st.BudgetPeak, st.EdgeChanges, st.Attempts)
		// The first iteration creates the scratch files and warms every
		// pool, so a profile of phase 4's steady state starts after it.
		if cfg.cpuProfile != "" && profiling == nil {
			if profiling, err = os.Create(cfg.cpuProfile); err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(profiling); err != nil {
				return err
			}
		}
		if st.EdgeChanges == 0 {
			fmt.Fprintln(out, "converged")
			break
		}
	}

	if profiling != nil {
		pprof.StopCPUProfile()
		err := profiling.Close()
		profiling = nil
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		fmt.Fprintf(out, "cpu profile of iterations after the first written to %s\n", cfg.cpuProfile)
	}

	iost := eng.IOStats()
	fmt.Fprintf(out, "\nI/O: %d state reads, %d state writes, %d seeks, %.1f MiB read, %.1f MiB written\n",
		iost.Loads, iost.Unloads, iost.Seeks,
		float64(iost.BytesRead)/(1<<20), float64(iost.BytesWritten)/(1<<20))
	for _, m := range []disk.Model{disk.HDD, disk.SSD, disk.NVMe} {
		fmt.Fprintf(out, "modeled disk time on %-5s %12v  (throughput %.1f MiB/s)\n",
			m.Name+":", m.EstimateTime(iost), m.Throughput(iost)/(1<<20))
	}
	for _, d := range iost.Devices {
		fmt.Fprintf(out, "emulated spindle %-8s modeled %12v  slept %12v\n", d.Name+":", d.Modeled, d.Slept)
	}

	if cfg.dumpGraph != "" {
		if err := dumpGraph(cfg.dumpGraph, eng.Graph()); err != nil {
			return fmt.Errorf("dump graph: %w", err)
		}
		fmt.Fprintf(out, "graph dumped to %s\n", cfg.dumpGraph)
	}

	if cfg.recall {
		fmt.Fprintln(out, "\ncomputing exact KNN for recall...")
		truth, err := exact.Compute(store, exact.Options{K: opts.K, Sim: opts.Similarity, Workers: opts.Workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recall vs exact: %.4f\n", knn.Recall(eng.Graph(), truth))
	}
	return nil
}

// parseNetStore interprets the -netstore flag: "" = in-process store,
// "shards=N" = loopback cluster of N shards, anything else = a
// statestore address list in shard order.
func parseNetStore(v string) (shards int, addrs []string, err error) {
	if v == "" {
		return 0, nil, nil
	}
	if n, ok := strings.CutPrefix(v, "shards="); ok {
		shards, err := strconv.Atoi(n)
		if err != nil || shards <= 0 {
			return 0, nil, fmt.Errorf("bad -netstore %q: want shards=N with positive N", v)
		}
		return shards, nil, nil
	}
	if addrs, err = netstore.ParseAddrs(v); err != nil {
		return 0, nil, fmt.Errorf("bad -netstore: %w", err)
	}
	return 0, addrs, nil
}

// dumpGraph writes one line per user — "u: n1 n2 ..." with neighbors in
// the graph's sorted order — so equal graphs produce byte-identical
// files regardless of how they were computed.
func dumpGraph(path string, g *graph.KNN) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for u := 0; u < g.NumNodes(); u++ {
		fmt.Fprintf(w, "%d:", u)
		for _, v := range g.Neighbors(uint32(u)) {
			fmt.Fprintf(w, " %d", v)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
