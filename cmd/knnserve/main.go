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
// Run `knnserve -help` for the flags; docs/OPERATIONS.md explains each
// and lists the endpoints, whose JSON shapes docs/PROTOCOL.md pins.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"knnpc/internal/netstore"
	"knnpc/internal/serve"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Stdout, os.Args[1:], ctx.Done()); err != nil {
		fmt.Fprintln(os.Stderr, "knnserve:", err)
		os.Exit(1)
	}
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
	primaries, err := netstore.ParseAddrs(*store)
	if err != nil {
		return fmt.Errorf("-store: %w", err)
	}
	var readers []string
	if *replicas != "" {
		if readers, err = netstore.ParseAddrs(*replicas); err != nil {
			return fmt.Errorf("-replicas: %w", err)
		}
	}
	srv, err := serve.New(serve.Config{
		Primaries:   primaries,
		Replicas:    readers,
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
