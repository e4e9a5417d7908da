// Command statestore serves one or more shards of the phase-4 network
// state store (internal/netstore). Each listed listen address becomes
// one shard owning a contiguous partition range; give every shard its
// own process/machine/disk in production, or list several addresses to
// host a small cluster in one process (each shard still gets its own
// emulated spindle).
//
// With -replicaof, the same process instead serves read replicas:
// each listen address shadows the corresponding primary shard, caching
// its published serve views with epoch-based invalidation and
// answering only the read verbs (EPOCH/GETVIEW/NEIGHBORS/PROFILE).
//
// Usage:
//
//	statestore -listen 127.0.0.1:7701,127.0.0.1:7702 -partitions 8 [-emulate hdd]
//	statestore -listen 127.0.0.1:7801,127.0.0.1:7802 -replicaof 127.0.0.1:7701,127.0.0.1:7702 -partitions 8
//
//	-listen     comma-separated listen addresses, one per shard, in
//	            shard order (the same order knnrun -netstore expects)
//	-replicaof  comma-separated primary shard addresses; turns this
//	            process into read replicas, -listen[i] shadowing
//	            -replicaof[i]
//	-partitions the engine's partition count m (must match the client)
//	-emulate    per-shard emulated device model: "hdd", "ssd", "nvme"
//	            ("" = serve at host speed)
//	-datadir    root durability directory; each shard journals its
//	            mutations to <datadir>/shard<i>/journal and replays
//	            it on restart (see docs/PROTOCOL.md)
//	-shard      cluster-wide index of the first listed address — set
//	            with -shards when this process hosts a slice of a
//	            larger cluster, so one shard can restart alone
//	-shards     cluster-wide shard count (0 = the -listen list is the
//	            whole cluster)
//	-faults     seeded fault-injection spec, e.g.
//	            "seed=42,drop=0.01,delay=0.05,maxdelay=5ms,torn=0.005";
//	            see internal/fault.ParseSpec for every key
//
// The process prints one "shard i/N partitions [lo,hi) listening on
// addr" line per shard (replicas print "replica" instead of "shard"),
// with -faults a "fault plan ... digest ..." line pinning the decision
// stream (same seed ⇒ same digest ⇒ same fault sequence), and a final
// "ready" line once every listener is bound, then serves until
// SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"knnpc/internal/disk"
	"knnpc/internal/fault"
	"knnpc/internal/netstore"
)

func main() {
	if err := run(os.Stdout, os.Args[1:], waitForSignal()); err != nil {
		fmt.Fprintln(os.Stderr, "statestore:", err)
		os.Exit(1)
	}
}

// waitForSignal returns a channel that closes on SIGINT/SIGTERM.
func waitForSignal() <-chan struct{} {
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(done)
	}()
	return done
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
	addrs, err := splitAddrs("-listen", *listen)
	if err != nil {
		return err
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
		primaries, err := splitAddrs("-replicaof", *replicaOf)
		if err != nil {
			return err
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

// splitAddrs parses a comma-separated address list, rejecting empties —
// a silently dropped (or worse, default-bound) shard would shift every
// later shard's partition range.
func splitAddrs(flagName, list string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("empty address in %s %q", flagName, list)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}
