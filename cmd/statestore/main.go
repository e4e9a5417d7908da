// Command statestore serves one or more shards of the phase-4 network
// state store (internal/netstore). Each listed listen address becomes
// one shard owning a contiguous partition range; give every shard its
// own process/machine/disk in production, or list several addresses to
// host a small cluster in one process (each shard still gets its own
// emulated spindle). With -replicaof, the same process instead serves
// read replicas, each listen address shadowing the corresponding
// primary shard.
//
// The process prints one "listening on" line per shard or replica and a
// final "ready" line once every listener is bound, then serves until
// SIGINT/SIGTERM. Run `statestore -help` for the flags;
// docs/OPERATIONS.md explains each and the bring-up order of a cluster.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"knnpc/internal/disk"
	"knnpc/internal/fault"
	"knnpc/internal/netstore"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Stdout, os.Args[1:], ctx.Done()); err != nil {
		fmt.Fprintln(os.Stderr, "statestore:", err)
		os.Exit(1)
	}
}

// run starts the shards, announces readiness on out, and serves until
// stop closes — separated from main so tests can drive it.
func run(out io.Writer, args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("statestore", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7701", "comma-separated listen addresses, one per shard, in shard order")
	replicaOf := fs.String("replicaof", "", "comma-separated primary addresses; serve read replicas of them instead of primary shards")
	partitions := fs.Int("partitions", 8, "engine partition count m")
	emulate := fs.String("emulate", "", "emulated device model per shard: hdd, ssd, nvme (empty = host speed)")
	dataDir := fs.String("datadir", "", "durability root; shard i journals its mutations to <datadir>/shard<i>/journal and replays it on restart")
	shard := fs.Int("shard", 0, "cluster-wide index of the first listed address (use with -shards to host a slice of a larger cluster)")
	shards := fs.Int("shards", 0, "cluster-wide shard count (0 = the -listen list is the whole cluster)")
	faults := fs.String("faults", "", `seeded fault-injection spec, e.g. "seed=42,drop=0.01,delay=0.05,maxdelay=5ms" (empty = no faults)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := disk.ResolveModel(*emulate)
	if err != nil {
		return err
	}
	addrs, err := netstore.ParseAddrs(*listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	var plan *fault.Plan
	if *faults != "" {
		if plan, err = fault.ParseSpec(*faults); err != nil {
			return err
		}
		// The digest pins the decision streams: two runs printing the
		// same digest inject the same fault sequence, which is what
		// makes a chaos failure replayable from its seed alone.
		fmt.Fprintf(out, "statestore: fault plan %q digest %s\n", *faults, plan.Digest(8, 64))
	}

	wrap := func(shard int, ln net.Listener) net.Listener { return ln }
	if plan != nil {
		wrap = func(shard int, ln net.Listener) net.Listener { return plan.Listener(ln) }
	}

	if *replicaOf != "" {
		if *dataDir != "" {
			return fmt.Errorf("-datadir applies to primary shards only (replicas rebuild their cache from the primary)")
		}
		primaries, err := netstore.ParseAddrs(*replicaOf)
		if err != nil {
			return fmt.Errorf("-replicaof: %w", err)
		}
		var ropts netstore.ReplicaSetOptions
		if plan != nil {
			ropts.WrapListener = wrap
		}
		set, err := netstore.StartReplicasOpts(addrs, primaries, *partitions, model, ropts)
		if err != nil {
			return err
		}
		defer set.Close()
		for i, rep := range set.Replicas() {
			lo, hi := rep.Range()
			fmt.Fprintf(out, "statestore: replica %d/%d partitions [%d,%d) listening on %s\n", i, len(addrs), lo, hi, rep.Addr())
		}
		fmt.Fprintln(out, "statestore: ready")
		<-stop
		fmt.Fprintln(out, "statestore: shutting down")
		return nil
	}

	opts := netstore.ClusterOptions{
		FirstShard:  *shard,
		TotalShards: *shards,
		DataDir:     *dataDir,
	}
	if plan != nil {
		opts.WrapListener = wrap
		opts.DiskHook = plan.DiskHook
	}
	cluster, err := netstore.StartClusterOpts(addrs, *partitions, model, opts)
	if err != nil {
		return err
	}
	defer cluster.Close()
	total := *shards
	if total == 0 {
		total = len(addrs)
	}
	for i, srv := range cluster.Servers() {
		lo, hi := srv.Range()
		fmt.Fprintf(out, "statestore: shard %d/%d partitions [%d,%d) listening on %s\n", *shard+i, total, lo, hi, srv.Addr())
	}
	fmt.Fprintln(out, "statestore: ready")
	<-stop
	fmt.Fprintln(out, "statestore: shutting down")
	return nil
}
