// Command knnrun runs the full five-phase out-of-core KNN pipeline
// (the paper's Figure 1) on a synthetic clustered-profile workload and
// prints per-iteration phase timings, load/unload operations, and
// modeled HDD/SSD/NVMe disk time.
//
// Usage:
//
//	knnrun [flags]
//
//	-users       number of users (default 2000)
//	-items       item-space size (default 5000)
//	-k           neighbors per user (default 10)
//	-m           number of partitions (default 8)
//	-iters       maximum iterations (default 5)
//	-heuristic   PI traversal, by pigraph name: "Seq.", "High-Low",
//	             "Low-High", "Max-Reuse", "Edge-Order" ("" = the engine
//	             default, Max-Reuse planned for -slots and -execworkers)
//	-partitioner "greedy", "range", or "hash"
//	-sim         "cosine", "jaccard", "dice", "overlap"
//	-workers     scoring goroutines (default 1)
//	-execworkers phase-4 tape workers: shard the traversal plan across this many executors (default 1)
//	-buildworkers phase-1/2 build workers: parallel state construction and
//	             concurrent tuple producers with batched emit; output is
//	             bit-identical at every count (default 1)
//	-slots       resident-partition budget S per worker (default 2, the paper's model)
//	-prefetch    async load lookahead depth; 0 = serial phase 4 (default 0)
//	-writeback   write partition state back asynchronously (default false)
//	-shardahead  tuple-shard read lookahead in pair steps; 0 = sync reads (default 0)
//	-ondisk      use real files for partition state (default true)
//	-emulate     enforce a disk model's latency on state I/O: "hdd", "ssd", "nvme" ("" = none)
//	-netstore    run phase 4 over the sharded network state store:
//	             "shards=N" starts an in-process loopback cluster of N
//	             shards (one emulated spindle each under -emulate), or a
//	             comma-separated address list connects to cmd/statestore
//	             servers (addr i = shard i)
//	-serveviews  publish per-partition serve views to the network store
//	             after each committed iteration, so statestore replicas
//	             and cmd/knnserve can answer point lookups mid-run
//	             (requires -netstore)
//	-staleness   incremental-maintenance threshold: every pass first
//	             drains queued whole-user adds/deletes (PUT/DELETE
//	             /v1/profile/{id} through knnserve, or the store's
//	             mutation journal) through a cheap delta commit; the
//	             full five-phase iteration then runs only while some
//	             partition's drift score is ≥ this value (0 = always
//	             iterate, the classic schedule)
//	-iterretries the engine's store-retry budget (core.Options.StoreRetries;
//	             network store runs): how many times one iteration
//	             restarts its compute from phase 1, or re-issues a
//	             drain or publish exchange, after a transient store
//	             failure. The engine's ladder is the only one above the
//	             client's per-op retries; raise the budget to ride out
//	             a shard crash+restart mid-run. The "attempts" column
//	             counts the compute attempts each iteration took
//	             (0 = the engine default of 3)
//	-dumpgraph   write the final KNN graph to this file, one sorted
//	             neighbor line per user — deterministic, so two runs
//	             (e.g. in-process vs -netstore) can be diffed byte for byte
//	-scratch     scratch directory ("" = temp)
//	-seed        RNG seed
//	-recall      also compute exact KNN and report recall (O(n²))
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/partition"
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
// straight into opts; the selectors run resolves by name, and what
// only knnrun itself consumes, sit beside it.
type config struct {
	opts                        core.Options
	users, items, iters         int
	heuristic, partitioner, sim string
	emulate                     string
	netstore                    string
	dumpGraph                   string
	recall                      bool
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
	fs.StringVar(&cfg.heuristic, "heuristic", "", "PI traversal heuristic: "+strings.Join(heuristics, ", ")+" (empty = the engine default)")
	fs.StringVar(&cfg.partitioner, "partitioner", "greedy", "partitioning strategy")
	fs.StringVar(&cfg.sim, "sim", "cosine", "similarity measure")
	fs.BoolVar(&opts.OnDisk, "ondisk", true, "use real files for partition state")
	fs.StringVar(&cfg.emulate, "emulate", "", "enforce a disk model's latency on state I/O: hdd, ssd, nvme (empty = none)")
	fs.StringVar(&cfg.netstore, "netstore", "", `sharded network state store: "shards=N" (loopback cluster) or a comma-separated statestore address list (empty = in-process store)`)
	fs.BoolVar(&opts.PublishViews, "serveviews", false, "publish serve views to the network store after each iteration (requires -netstore)")
	fs.Float64Var(&opts.StalenessThreshold, "staleness", 0, "run a full iteration only at drift ≥ this score; add/delete deltas apply every pass (0 = always iterate)")
	fs.IntVar(&opts.StoreRetries, "iterretries", 0, "the engine's store-retry budget: restarts of an iteration's compute, or re-issues of a drain or publish, after a transient store failure (network store runs; 0 = the engine default of 3)")
	fs.StringVar(&cfg.dumpGraph, "dumpgraph", "", "write the final KNN graph to this file (deterministic text, diffable across runs)")
	fs.BoolVar(&opts.ProfilesOnDisk, "profilesondisk", false, "keep the canonical profile collection on disk too")
	fs.BoolVar(&cfg.recall, "recall", false, "also compute exact KNN and report recall (O(n²))")
	fs.StringVar(&opts.ScratchDir, "scratch", "", "scratch directory (empty = temp)")
	fs.Int64Var(&opts.Seed, "seed", 1, "RNG seed")
	fs.Parse(args)
	return cfg
}

func run(out io.Writer, cfg config) error {
	opts := cfg.opts
	if cfg.heuristic != "" {
		h, ok := pigraph.HeuristicByName(cfg.heuristic, opts.Slots, opts.ExecWorkers)
		if !ok {
			return fmt.Errorf("unknown heuristic %q", cfg.heuristic)
		}
		opts.Heuristic = h
	}
	p, ok := partition.ByName(cfg.partitioner)
	if !ok {
		return fmt.Errorf("unknown partitioner %q", cfg.partitioner)
	}
	sim, ok := profile.ByName(cfg.sim)
	if !ok {
		return fmt.Errorf("unknown similarity %q", cfg.sim)
	}
	opts.Partitioner, opts.Similarity = p, sim
	var err error
	if opts.EmulateDisk, err = disk.ResolveModel(cfg.emulate); err != nil {
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
		opts.K, opts.NumPartitions, eng.Heuristic().Name(), p.Name(), sim.Name(), opts.Workers, opts.ExecWorkers, opts.BuildWorkers, opts.Slots, opts.PrefetchDepth, opts.AsyncWriteback, opts.ShardPrefetch, opts.OnDisk, netDesc)
	fmt.Fprintln(out, "iter  phase1(part)  phase2(tuples)  phase3(pi)  phase4(score)  phase5(upd)  ops  reads  attached  builds  writes  collected  shards  prefetched  async-wb  changed  attempts")

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
		fmt.Fprintf(out, "%4d  %12v  %14v  %10v  %13v  %11v  %5d  %5d  %8d  %6d  %6d  %9d  %6d  %10d  %8d  %7d  %8d\n",
			st.Iteration, st.Phases.Partition, st.Phases.Tuples, st.Phases.PIGraph,
			st.Phases.Score, st.Phases.Update, st.Ops(), st.MediumReads, st.Attaches,
			st.StateBuilds, st.StateWrites, st.CollectReads, st.ShardReads, st.PrefetchedLoads, st.AsyncUnloads, st.EdgeChanges, st.Attempts)
		if st.EdgeChanges == 0 {
			fmt.Fprintln(out, "converged")
			break
		}
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
		fmt.Fprintln(out, "\ncomputing exact KNN for recall (O(n²))...")
		truth, err := exact.Compute(store, exact.Options{K: opts.K, Sim: sim, Workers: opts.Workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "recall vs exact: %.4f\n", knn.Recall(eng.Graph(), truth))
	}
	return nil
}

// parseNetStore interprets the -netstore flag: "" = in-process store,
// "shards=N" = loopback cluster of N shards, anything else = a
// comma-separated statestore address list in shard order.
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
	for _, a := range strings.Split(v, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return 0, nil, fmt.Errorf("bad -netstore %q: empty address in list", v)
		}
		addrs = append(addrs, a)
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
