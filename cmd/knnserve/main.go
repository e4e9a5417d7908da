// Command knnserve is the HTTP/JSON front end of the online serving
// tier: it answers point lookups against the serve views published by
// a running engine (knnrun -serveviews) and feeds profile updates into
// the engine's lazy phase-5 queue. The handler itself lives in
// internal/serve and every wire shape in internal/api — this binary is
// only flags, listener, and signal handling.
//
// Reads go to the replica tier when -replicas is given (stale-but-
// bounded answers, no load on the primaries' spindles during phase 4)
// and to the primary shards otherwise. Writes always go to the
// primaries — replicas are read-only.
//
// Usage:
//
//	knnserve -listen 127.0.0.1:8080 -store 127.0.0.1:7701,127.0.0.1:7702 \
//	         [-replicas 127.0.0.1:7801,127.0.0.1:7802] -partitions 8
//
//	-listen     HTTP listen address
//	-store      comma-separated primary statestore addresses, in shard
//	            order (same list knnrun -netstore uses)
//	-replicas   comma-separated replica addresses (statestore
//	            -replicaof); when set, lookups are served from here
//	-partitions the engine's partition count m (must match the cluster)
//	-maxinflight when positive, bound on concurrently served requests;
//	            excess requests are shed with 503 + Retry-After
//	            (/healthz and /v1/stats are exempt)
//
// Endpoints (JSON shapes are internal/api's v1 types, pinned by golden
// tests; see docs/PROTOCOL.md):
//
//	GET  /v1/neighbors/{id}  api.NeighborsResponse
//	GET  /v1/profile/{id}    api.ProfileResponse
//	POST /v1/profile         api.UpdateRequest → 202 api.UpdateResponse,
//	                         queued for the next phase 5
//	GET  /v1/stats           api.StatsResponse: per-endpoint counts and
//	                         p50/p90/p95/p99 from log-scale histograms
//	GET  /healthz            per-tier reachability: "ok"/"degraded"
//	                         (200 while anything can be served) or
//	                         "unreachable" (503)
//
// Answers carry the epoch (committed engine iteration) they reflect;
// a 404 means the user is not in any published view yet.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"knnpc/internal/serve"
)

func main() {
	if err := run(os.Stdout, os.Args[1:], waitForSignal()); err != nil {
		fmt.Fprintln(os.Stderr, "knnserve:", err)
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

// run starts the front end, announces the bound address on out, and
// serves until stop closes — separated from main so tests can drive it.
func run(out io.Writer, args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("knnserve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	store := fs.String("store", "", "comma-separated primary statestore addresses, in shard order")
	replicas := fs.String("replicas", "", "comma-separated replica addresses; lookups served from here when set")
	partitions := fs.Int("partitions", 8, "engine partition count m")
	maxInflight := fs.Int("maxinflight", 0, "bound on concurrently served requests; excess shed with 503 + Retry-After (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return errors.New("-store is required")
	}
	srv, err := serve.New(serve.Config{
		Primaries:   splitList(*store),
		Replicas:    splitList(*replicas),
		Partitions:  *partitions,
		MaxInflight: *maxInflight,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Mux()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Fprintf(out, "knnserve: listening on %s (reads via %s)\n", ln.Addr(), srv.ReadTier())
	fmt.Fprintln(out, "knnserve: ready")
	select {
	case <-stop:
		fmt.Fprintln(out, "knnserve: shutting down")
		hs.Close()
		<-done
		return nil
	case err := <-done:
		return err
	}
}

// splitList is a forgiving comma split ("" → nil); address validation
// happens when the netstore client dials.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
